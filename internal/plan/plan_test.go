package plan

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/relational"
	"repro/internal/xqparse"
)

// TestPlanExecuteMatchesApply: Compile+Execute must behave exactly like
// the text-based Apply pipeline — same verdicts, same SQL, same base
// state — across accepted, data-rejected and schema-rejected updates.
func TestPlanExecuteMatchesApply(t *testing.T) {
	corpus := []string{
		// Accepted leaf replace.
		`FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98001"
UPDATE $book { REPLACE $book/price WITH <price>21.00</price> }`,
		// Accepted delete of reviews.
		`FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "TCP/IP Illustrated"
UPDATE $book { DELETE $book/review }`,
		// Data-rejected: context not in the view.
		`FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "DB2 Universal Database"
UPDATE $book { DELETE $book/review }`,
		// Schema-rejected: overlap with the view's price check fails.
		`FOR $root IN document("BookView.xml"),
    $book = $root/book
WHERE $book/price > 55.00
UPDATE $root { DELETE $book }`,
		// Accepted insert (u13 shape).
		`FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book { INSERT <review><reviewid>700</reviewid><comment>fine</comment></review> }`,
	}
	for i, text := range corpus {
		viaApply := newBookExec(t)
		want, err := viaApply.Apply(text)
		if err != nil {
			t.Fatalf("update %d: apply: %v", i, err)
		}

		viaPlan := newBookExec(t)
		u, err := xqparse.ParseUpdate(text)
		if err != nil {
			t.Fatalf("update %d: parse: %v", i, err)
		}
		p, err := viaPlan.Compile(u)
		if err != nil {
			t.Fatalf("update %d: compile: %v", i, err)
		}
		got, err := viaPlan.Execute(p, p.BindArgs(u))
		if err != nil {
			t.Fatalf("update %d: execute: %v", i, err)
		}

		if got.Accepted != want.Accepted || got.Outcome != want.Outcome ||
			got.RejectedAt != want.RejectedAt || got.Reason != want.Reason ||
			got.RowsAffected != want.RowsAffected ||
			!reflect.DeepEqual(got.SQL, want.SQL) ||
			!reflect.DeepEqual(got.Warnings, want.Warnings) {
			t.Errorf("update %d: plan result diverged\n got: %+v\nwant: %+v", i, got, want)
		}
		if gotRows, wantRows := viaPlan.Exec.DB.TotalRows(), viaApply.Exec.DB.TotalRows(); gotRows != wantRows {
			t.Errorf("update %d: base rows diverged: plan %d vs apply %d", i, gotRows, wantRows)
		}
	}
}

// insertReview builds a u13-shaped insert with a fresh review id.
func insertReview(id int) string {
	return fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book { INSERT <review><reviewid>%d</reviewid><comment>batch</comment></review> }`, id)
}

// TestApplyBatchGroupCommit: a batch commits all accepted updates under
// ONE transaction and ONE commit group, rejected updates roll back to
// their own savepoints without disturbing siblings, and per-update
// errors (parse failures) are reported in place.
func TestApplyBatchGroupCommit(t *testing.T) {
	e := newBookExec(t)
	reviewsBefore := e.Exec.DB.RowCount("review")
	groupsBefore := e.Exec.DB.Stats().GroupCommits

	batch := []string{
		insertReview(801),
		"NOT AN UPDATE",
		// Data-rejected: duplicate key of the first insert.
		insertReview(801),
		insertReview(802),
		// Schema-rejected at Step 1 (empty title).
		`FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book { REPLACE $book/title WITH <title> </title> }`,
	}
	out := e.ApplyBatch(batch)
	if len(out) != len(batch) {
		t.Fatalf("got %d results, want %d", len(out), len(batch))
	}
	if out[0].Err != nil || !out[0].Result.Accepted {
		t.Errorf("update 0 should be accepted: %+v %v", out[0].Result, out[0].Err)
	}
	if out[1].Err == nil {
		t.Error("update 1 should report a parse error")
	}
	if out[2].Err != nil || out[2].Result.Accepted || out[2].Result.RejectedAt != StepData {
		t.Errorf("update 2 should be data-rejected: %+v %v", out[2].Result, out[2].Err)
	}
	if out[3].Err != nil || !out[3].Result.Accepted {
		t.Errorf("update 3 should be accepted: %+v %v", out[3].Result, out[3].Err)
	}
	if out[4].Err != nil || out[4].Result.Accepted || out[4].Result.RejectedAt != StepValidation {
		t.Errorf("update 4 should be schema-rejected: %+v %v", out[4].Result, out[4].Err)
	}
	if got := e.Exec.DB.RowCount("review"); got != reviewsBefore+2 {
		t.Errorf("review rows = %d, want %d (two accepted inserts)", got, reviewsBefore+2)
	}
	if groups := e.Exec.DB.Stats().GroupCommits - groupsBefore; groups != 1 {
		t.Errorf("commit groups = %d, want 1 (one flush for the batch)", groups)
	}
	// The rejected duplicate's partial work must not survive.
	ids, _ := e.Exec.DB.LookupEqual("review", []string{"reviewid"}, []relational.Value{relational.String_("801")})
	if len(ids) != 1 {
		t.Errorf("reviewid 801 occurs %d times, want 1", len(ids))
	}
}

// TestExecuteBatchGroupCommit: the prepared-plan batch path shares the
// group-commit semantics — one flush for N bound tuples.
func TestExecuteBatchGroupCommit(t *testing.T) {
	e := newBookExec(t)
	u, err := xqparse.ParseUpdate(insertReview(900))
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Compile(u)
	if err != nil {
		t.Fatal(err)
	}
	groupsBefore := e.Exec.DB.Stats().GroupCommits
	reviewsBefore := e.Exec.DB.RowCount("review")
	// The insert template has one literal slot (the title predicate);
	// the fragment is part of the template, so every tuple inserts the
	// same review id — the first succeeds, repeats are data conflicts.
	args := [][]relational.Value{
		{relational.String_("Data on the Web")},
		{relational.String_("Data on the Web")},
		{relational.String_("No Such Title")},
	}
	out := e.ExecuteBatch(p, args)
	if out[0].Err != nil || !out[0].Result.Accepted {
		t.Errorf("tuple 0: %+v %v", out[0].Result, out[0].Err)
	}
	if out[1].Err != nil || out[1].Result.Accepted || out[1].Result.RejectedAt != StepData {
		t.Errorf("tuple 1 should be a data conflict: %+v", out[1].Result)
	}
	if out[2].Err != nil || out[2].Result.Accepted || out[2].Result.RejectedAt != StepData {
		t.Errorf("tuple 2 should miss the context: %+v", out[2].Result)
	}
	if got := e.Exec.DB.RowCount("review"); got != reviewsBefore+1 {
		t.Errorf("review rows = %d, want %d", got, reviewsBefore+1)
	}
	if groups := e.Exec.DB.Stats().GroupCommits - groupsBefore; groups != 1 {
		t.Errorf("commit groups = %d, want 1", groups)
	}
}

// TestCheckBoundVerdictOffPlan: a literal-sensitive template's verdict
// for a fresh literal tuple is derived off the compiled plan (no
// re-resolution) and must match the verdict of a plan compiled from
// that instance.
func TestCheckBoundVerdictOffPlan(t *testing.T) {
	e := newBookExec(t)
	tmpl := func(price string) string {
		return fmt.Sprintf(`
FOR $root IN document("BookView.xml"),
    $book = $root/book
WHERE $book/price > %s
UPDATE $root { DELETE $book }`, price)
	}
	// Prime the plan with one literal, then check others through the
	// bound-verdict path.
	if _, err := e.Check(tmpl("40.00")); err != nil {
		t.Fatal(err)
	}
	plain := newBookExec(t)
	for _, price := range []string{"45.00", "55.00", "10.00"} {
		got, err := e.Check(tmpl(price))
		if err != nil {
			t.Fatal(err)
		}
		want, err := runReference(plain, tmpl(price), referenceVerdict)
		if err != nil {
			t.Fatal(err)
		}
		if got.Accepted != want.Accepted || got.Outcome != want.Outcome || got.Reason != want.Reason {
			t.Errorf("price %s: bound verdict %+v, throwaway plan's %+v", price, got, want)
		}
	}
	if st := e.CacheStats(); st.Plans == 0 {
		t.Errorf("no compiled plans cached: %+v", st)
	}
}

// TestOneApplyPath holds the package to one write path: only applyGroup
// and BlindApply open a write transaction, and only applyGroup runs an
// update's ops, so a second apply engine with its own transaction and
// retry loop cannot grow back beside applyGroupWithRetry.
func TestOneApplyPath(t *testing.T) {
	allowed := map[string][]string{
		"BeginTxn": {"applyGroup", "BlindApply"},
		"runOps":   {"applyGroup"},
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, file := range pkgs["plan"].Files {
		for _, decl := range file.Decls {
			in := "" // a package-level declaration
			if fn, ok := decl.(*ast.FuncDecl); ok {
				in = fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				callers, guarded := allowed[sel.Sel.Name]
				switch {
				case !guarded:
				case slices.Contains(callers, in):
					seen[in+"."+sel.Sel.Name] = true
				default:
					t.Errorf("%s: %s uses %s; only %v may", fset.Position(sel.Pos()), in, sel.Sel.Name, callers)
				}
				return true
			})
		}
	}
	for name, callers := range allowed {
		for _, fn := range callers {
			if !seen[fn+"."+name] {
				t.Errorf("%s no longer uses %s: update this guard", fn, name)
			}
		}
	}
}
