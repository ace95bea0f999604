package ufilter

import (
	"strings"
	"testing"

	"repro/internal/bookdb"
	"repro/internal/relational"
)

// TestMultiOpUpdate: one UPDATE block with a delete and an insert — both
// land, in order.
func TestMultiOpUpdate(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	res, err := f.Apply(`
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98001"
UPDATE $book {
  DELETE $book/review,
  INSERT <review><reviewid>010</reviewid><comment>replacement review</comment></review>
}`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("rejected: %s", res.Reason)
	}
	ids, _ := f.Exec.DB.LookupEqual("review", []string{"bookid"}, []relational.Value{relational.String_("98001")})
	if len(ids) != 1 {
		t.Fatalf("reviews after replace-style update = %d, want 1", len(ids))
	}
	if rid := colValue(t, f.Exec.DB, "review", ids[0], "reviewid"); rid.Str != "010" {
		t.Errorf("surviving review id = %v", rid)
	}
}

// TestMultiOpAtomicity: when the second op of a block hits a data
// conflict, the first op's effects must roll back — the whole update is
// rejected atomically.
func TestMultiOpAtomicity(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	before := f.Exec.DB.RowCount("review")
	res, err := f.Apply(`
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98001"
UPDATE $book {
  DELETE $book/review,
  INSERT <review><reviewid></reviewid><comment>x</comment></review>
}`)
	if err != nil {
		t.Fatal(err)
	}
	// The empty reviewid violates NOT NULL — caught in validation, so
	// nothing executed at all.
	if res.Accepted {
		t.Fatal("update with NOT NULL violation accepted")
	}
	if got := f.Exec.DB.RowCount("review"); got != before {
		t.Fatalf("review count = %d, want %d (atomic rejection)", got, before)
	}

	// Now a conflict only detectable at the data level: inserting a
	// review whose key duplicates an existing one, after a delete of a
	// DIFFERENT book's reviews in the same block.
	res, err = f.Apply(`
FOR $root IN document("BookView.xml"),
    $book IN $root/book
WHERE $book/bookid/text() = "98003"
UPDATE $book {
  INSERT <review><reviewid>001</reviewid><comment>first</comment></review>,
  INSERT <review><reviewid>001</reviewid><comment>duplicate key</comment></review>
}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("duplicate-key second insert accepted")
	}
	ids, _ := f.Exec.DB.LookupEqual("review", []string{"bookid"}, []relational.Value{relational.String_("98003")})
	if len(ids) != 0 {
		t.Fatalf("first insert leaked through a rejected block: %d rows", len(ids))
	}
}

// TestCheckDoesNotTouchData: Check must never read or write base data.
func TestCheckDoesNotTouchData(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	scanned, probes := f.Exec.RowsScanned, f.Exec.IndexProbes
	stmts := f.Exec.DB.Stats().StatementsExecuted
	for _, u := range bookdb.AllUpdates() {
		if _, err := f.Check(u.Text); err != nil {
			t.Fatal(err)
		}
	}
	if f.Exec.RowsScanned != scanned || f.Exec.IndexProbes != probes {
		t.Error("schema-level Check accessed base data")
	}
	if f.Exec.DB.Stats().StatementsExecuted != stmts {
		t.Error("schema-level Check executed statements")
	}
}

// TestEnumStrings exercises the display helpers.
func TestEnumStrings(t *testing.T) {
	if StrategyHybrid.String() != "hybrid" || StrategyOutside.String() != "outside" || StrategyInternal.String() != "internal" {
		t.Error("strategy names")
	}
	for o, want := range map[Outcome]string{
		OutcomeInvalid:        "invalid",
		OutcomeUntranslatable: "untranslatable",
		OutcomeConditional:    "conditionally translatable",
		OutcomeUnconditional:  "unconditionally translatable",
	} {
		if o.String() != want {
			t.Errorf("%d = %q, want %q", o, o.String(), want)
		}
	}
	for c, want := range map[Condition]string{
		CondNone:             "none",
		CondMinimization:     "translation minimization",
		CondDupConsistency:   "duplication consistency",
		CondSharedPartsExist: "shared parts must pre-exist",
	} {
		if c.String() != want {
			t.Errorf("condition %d = %q, want %q", c, c.String(), want)
		}
	}
}

// TestResolveErrors: malformed references reject as invalid with a
// helpful message rather than erroring out.
func TestResolveErrors(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	cases := []struct{ name, text, want string }{
		{"bad path", `FOR $x IN document("v.xml")/nosuch UPDATE $x { DELETE $x }`, "does not exist"},
		{"unbound delete var", `FOR $b IN document("v.xml")/book UPDATE $b { DELETE $ghost/review }`, "unbound"},
		{"bad predicate path", `FOR $b IN document("v.xml")/book WHERE $b/nosuch/text() = "x" UPDATE $b { DELETE $b/review }`, "not in the view schema"},
		{"unbound target", `FOR $b IN document("v.xml")/book UPDATE $ghost { DELETE $b/review }`, "not bound"},
	}
	for _, c := range cases {
		res, err := f.Check(c.text)
		if err != nil {
			t.Errorf("%s: hard error %v", c.name, err)
			continue
		}
		if res.Accepted || res.Outcome != OutcomeInvalid {
			t.Errorf("%s: accepted=%v outcome=%s", c.name, res.Accepted, res.Outcome)
		}
		if !strings.Contains(res.Reason, c.want) {
			t.Errorf("%s: reason %q missing %q", c.name, res.Reason, c.want)
		}
	}
}

// TestFilterReuse: one compiled filter serves many updates; temp tables
// from earlier applies do not leak into later ones.
func TestFilterReuse(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	for i := 0; i < 3; i++ {
		res, err := f.Apply(bookdb.U12)
		if err != nil || !res.Accepted {
			t.Fatalf("iteration %d: %v %+v", i, err, res)
		}
	}
	res, err := f.Apply(bookdb.U13)
	if err != nil || !res.Accepted {
		t.Fatalf("u13 after reuse: %v %+v", err, res)
	}
}

// TestRestrictPolicyDelete: a RESTRICT schema turns the anchor delete
// into an engine-level rejection the hybrid strategy surfaces.
func TestRestrictPolicyDelete(t *testing.T) {
	db, err := bookdb.NewDatabase(relational.DeleteRestrict)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(bookdb.ViewQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	// Deleting book 98001 is restricted by its reviews.
	res, err := f.Apply(`
FOR $root IN document("BookView.xml"),
    $book = $root/book
WHERE $book/bookid/text() = "98001"
UPDATE $root { DELETE $book }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("restricted delete accepted")
	}
	if !strings.Contains(res.Reason, "conflict") && !strings.Contains(res.Reason, "restrict") {
		t.Errorf("reason = %q", res.Reason)
	}
	if got := db.RowCount("book"); got != 3 {
		t.Errorf("book count = %d", got)
	}
}
