package ufilter

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bookdb"
	"repro/internal/relational"
	"repro/internal/xqparse"
)

// newBookExec compiles the BookView executor the way ufilter.New does,
// without importing the facade (which would cycle).
func newBookExec(t testing.TB) *Filter {
	t.Helper()
	db, err := bookdb.NewDatabase(relational.DeleteCascade)
	if err != nil {
		t.Fatal(err)
	}
	return newExec(t, db, bookdb.ViewQuery)
}

// TestReplaceInternalNode: replacing an internal element is
// delete-then-insert of the target's instances (footnote 4). Book
// 98001 carries two reviews; the replace must remove both and insert
// the new one — the regression here was an IN-temp delete bound to an
// empty temp name (DELETE ... WHERE review.bookid = NULL), which
// silently deleted nothing and duplicated the element.
func TestReplaceInternalNode(t *testing.T) {
	e := newBookExec(t)
	res, err := e.Apply(context.Background(), `
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98001"
UPDATE $book { REPLACE $book/review WITH <review><reviewid>900</reviewid><comment>new</comment></review> }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("rejected: %s", res.Reason)
	}
	if got := e.Exec.DB.RowCount("review"); got != 1 {
		t.Errorf("review rows = %d, want 1 (both old reviews deleted, one inserted)", got)
	}
	for _, sql := range res.SQL {
		if strings.Contains(sql, "NULL") {
			t.Errorf("replace emitted a NULL-bound statement: %q", sql)
		}
	}
	ids, _ := e.Exec.DB.LookupEqual("review", []string{"reviewid"}, []relational.Value{relational.String_("900")})
	if len(ids) != 1 {
		t.Errorf("new review missing after replace")
	}
}

// TestReplaceLiteralCoercion: a replacement value outside the leaf's
// domain is invalid at Step 1, through Check, Apply and a compiled
// plan alike.
func TestReplaceLiteralCoercion(t *testing.T) {
	e := newBookExec(t)
	upd := `
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98001"
UPDATE $book { REPLACE $book/price WITH <price>witty</price> }`
	res, err := e.Check(context.Background(), upd)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.RejectedAt != StepValidation || res.Outcome != OutcomeInvalid {
		t.Fatalf("check: accepted=%v at=%v outcome=%v", res.Accepted, res.RejectedAt, res.Outcome)
	}
	res2, err := e.Apply(context.Background(), upd)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Accepted || res2.Reason != res.Reason {
		t.Fatalf("apply diverged from check: %+v vs %+v", res2, res)
	}
	u, err := xqparse.ParseUpdate(upd)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Compile(u)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := e.Execute(p, p.BindArgs(u))
	if err != nil {
		t.Fatal(err)
	}
	if res3.Accepted || res3.Reason != res.Reason {
		t.Fatalf("plan execute diverged: %+v vs %+v", res3, res)
	}
}

// TestMultiOpReplace: one update block carrying a replace and a delete
// applies both operations atomically.
func TestMultiOpReplace(t *testing.T) {
	e := newBookExec(t)
	res, err := e.Apply(context.Background(), `
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98001"
UPDATE $book {
  REPLACE $book/price WITH <price>19.99</price>
  DELETE $book/review
}`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("rejected: %s", res.Reason)
	}
	if price := bookValues(t, e, "98001")["price"]; price.Float != 19.99 {
		t.Errorf("price = %v after multi-op replace", price)
	}
	if got := e.Exec.DB.RowCount("review"); got != 0 {
		t.Errorf("review rows = %d, want 0", got)
	}
}

// TestReplaceEmptyProbe: a replace whose context matches no view
// instance is rejected by the data-driven step — and leaves the base
// untouched — on both the dynamic and the prepared path.
func TestReplaceEmptyProbe(t *testing.T) {
	e := newBookExec(t)
	upd := `
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "nope"
UPDATE $book { REPLACE $book/price WITH <price>19.99</price> }`
	before := e.Exec.DB.TotalRows()
	res, err := e.Apply(context.Background(), upd)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.RejectedAt != StepData {
		t.Fatalf("apply: accepted=%v at=%v reason=%q", res.Accepted, res.RejectedAt, res.Reason)
	}
	u, err := xqparse.ParseUpdate(upd)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Compile(u)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e.Execute(p, p.BindArgs(u))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Accepted || res2.RejectedAt != StepData {
		t.Fatalf("plan execute: accepted=%v at=%v", res2.Accepted, res2.RejectedAt)
	}
	if e.Exec.DB.TotalRows() != before {
		t.Error("rejected replace modified the base")
	}
}

// TestInternalStrategyFallbacks: relational join-views support inserts
// only, so the internal strategy warns and falls back to hybrid for
// deletes and replaces (the paper's first shortcoming), and an insert
// whose context probe is empty is rejected before the join-view is
// touched.
func TestInternalStrategyFallbacks(t *testing.T) {
	e := newBookExec(t)
	e.Strategy = StrategyInternal

	res, err := e.Apply(context.Background(), `
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98001"
UPDATE $book { DELETE $book/review }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("internal delete rejected: %s", res.Reason)
	}
	wantWarn := false
	for _, w := range res.Warnings {
		if strings.Contains(w, "falling back to hybrid") {
			wantWarn = true
		}
	}
	if !wantWarn {
		t.Errorf("internal delete did not warn about the hybrid fallback: %v", res.Warnings)
	}

	res, err = e.Apply(context.Background(), `
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98003"
UPDATE $book { REPLACE $book/price WITH <price>20.00</price> }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("internal replace rejected: %s", res.Reason)
	}
	wantWarn = false
	for _, w := range res.Warnings {
		if strings.Contains(w, "falling back to hybrid") {
			wantWarn = true
		}
	}
	if !wantWarn {
		t.Errorf("internal replace did not warn: %v", res.Warnings)
	}

	res, err = e.Apply(context.Background(), `
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "No Such Book"
UPDATE $book { INSERT <review><reviewid>901</reviewid><comment>x</comment></review> }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.RejectedAt != StepData {
		t.Fatalf("internal insert with empty probe: accepted=%v at=%v", res.Accepted, res.RejectedAt)
	}
}
