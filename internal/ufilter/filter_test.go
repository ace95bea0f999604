package ufilter

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bookdb"
	"repro/internal/relational"
)

func newFilter(t testing.TB, strategy Strategy) *Filter {
	t.Helper()
	db, err := bookdb.NewDatabase(relational.DeleteCascade)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(bookdb.ViewQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	f.Strategy = strategy
	return f
}

// colValue reads one column of a row r sees: Get, then the column's
// position from ColumnIndex.
func colValue(t testing.TB, r relational.Reader, table string, id relational.RowID, column string) relational.Value {
	t.Helper()
	row, err := r.Get(table, id)
	if err != nil {
		t.Fatal(err)
	}
	def, _ := r.Schema().Table(table)
	i, ok := def.ColumnIndex(column)
	if !ok {
		t.Fatalf("%v: %s.%s", relational.ErrNoSuchColumn, table, column)
	}
	return row.Values[i]
}

// TestSTARMarks verifies the (UPoint|UContext) pairs of Fig. 8.
func TestSTARMarks(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	in := f.View.InternalNodes()
	vC1, vC2, vC3, vC4 := in[0], in[1], in[2], in[3]

	cases := []struct {
		name                    string
		node                    int
		safeDel, safeIns, clean bool
	}{
		{"vC1 book: (dirty | s-d ^ u-i)", 0, true, false, false},
		{"vC2 publisher-in-book: (dirty | u-d ^ u-i)", 1, false, false, false},
		{"vC3 review: (clean | s-d ^ s-i)", 2, true, true, true},
		{"vC4 publisher-at-root: (dirty | u-d ^ s-i)", 3, false, true, false},
	}
	_ = vC1
	_ = vC2
	_ = vC3
	_ = vC4
	for _, c := range cases {
		n := in[c.node]
		if n.UCtx.SafeDelete != c.safeDel || n.UCtx.SafeInsert != c.safeIns || n.Clean != c.clean {
			t.Errorf("%s: got (clean=%v | %s)", c.name, n.Clean, n.UCtx)
		}
	}
	if vC1.DeleteAnchor != "book" {
		t.Errorf("vC1 anchor = %q, want book", vC1.DeleteAnchor)
	}
	if vC3.DeleteAnchor != "review" {
		t.Errorf("vC3 anchor = %q, want review", vC3.DeleteAnchor)
	}
	ms := f.Marks.MarkString()
	if !strings.Contains(ms, "vC3 <review>: (clean | s-d^s-i)") {
		t.Errorf("MarkString:\n%s", ms)
	}
}

// TestPaperClassifications runs all thirteen updates of Figs. 4 and 10
// through the schema-level pipeline and checks each lands in the
// paper's category.
func TestPaperClassifications(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	cases := []struct {
		name       string
		text       string
		accepted   bool
		rejectedAt Step
		outcome    Outcome
		reasonHas  string
	}{
		{"u1 invalid insert", bookdb.U1, false, StepValidation, OutcomeInvalid, "title"},
		{"u2 delete publisher untranslatable", bookdb.U2, false, StepSTAR, OutcomeUntranslatable, "unsafe-delete"},
		{"u3 insert review passes schema checks", bookdb.U3, true, StepNone, OutcomeUnconditional, ""},
		{"u4 insert book conditional", bookdb.U4, true, StepNone, OutcomeConditional, ""},
		{"u5 invalid overlap", bookdb.U5, false, StepValidation, OutcomeInvalid, "overlap"},
		{"u6 invalid text delete", bookdb.U6, false, StepValidation, OutcomeInvalid, "NOT NULL"},
		{"u7 invalid missing publisher", bookdb.U7, false, StepValidation, OutcomeInvalid, "publisher"},
		{"u8 delete reviews unconditional", bookdb.U8, true, StepNone, OutcomeUnconditional, "clean | safe-delete"},
		{"u9 delete book conditional", bookdb.U9, true, StepNone, OutcomeConditional, "dirty | safe-delete"},
		{"u10 delete publisher untranslatable", bookdb.U10, false, StepSTAR, OutcomeUntranslatable, "unsafe-delete"},
		{"u11 passes schema checks", bookdb.U11, true, StepNone, OutcomeUnconditional, ""},
		{"u12 passes schema checks", bookdb.U12, true, StepNone, OutcomeUnconditional, ""},
		{"u13 insert review unconditional", bookdb.U13, true, StepNone, OutcomeUnconditional, ""},
	}
	for _, c := range cases {
		res, err := f.Check(context.Background(), c.text)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if res.Accepted != c.accepted || res.RejectedAt != c.rejectedAt {
			t.Errorf("%s: accepted=%v rejectedAt=%d (reason %q), want accepted=%v at %d",
				c.name, res.Accepted, res.RejectedAt, res.Reason, c.accepted, c.rejectedAt)
			continue
		}
		if res.Outcome != c.outcome {
			t.Errorf("%s: outcome=%s, want %s (reason %q)", c.name, res.Outcome, c.outcome, res.Reason)
		}
		if c.reasonHas != "" && !strings.Contains(res.Reason, c.reasonHas) {
			t.Errorf("%s: reason %q missing %q", c.name, res.Reason, c.reasonHas)
		}
	}
}

// TestU9Conditions: the dirty | safe-delete book node requires
// translation minimization (Observation 1).
func TestU9Conditions(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	res, err := f.Check(context.Background(), bookdb.U9)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.Conditions {
		if c == CondMinimization {
			found = true
		}
	}
	if !found {
		t.Errorf("u9 conditions = %v, want minimization", res.Conditions)
	}
}

// TestU4Conditions: the Rule-3-unsafe book insert requires the shared
// publisher to pre-exist plus duplication consistency.
func TestU4Conditions(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	res, err := f.Check(context.Background(), bookdb.U4)
	if err != nil {
		t.Fatal(err)
	}
	var hasShared, hasDup bool
	for _, c := range res.Conditions {
		if c == CondSharedPartsExist {
			hasShared = true
		}
		if c == CondDupConsistency {
			hasDup = true
		}
	}
	if !hasShared || !hasDup {
		t.Errorf("u4 conditions = %v", res.Conditions)
	}
}

// TestApplyU3RejectedByContextProbe: Example 3 — the book is not in the
// view, so the data-driven context check rejects.
func TestApplyU3RejectedByContextProbe(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	res, err := f.Apply(context.Background(), bookdb.U3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.RejectedAt != StepData {
		t.Fatalf("u3: accepted=%v at=%d reason=%q", res.Accepted, res.RejectedAt, res.Reason)
	}
	if len(res.Probes) != 0 {
		t.Errorf("probe SQL rendered before it was asked for: %v", res.Probes)
	}
	if res.RenderProbes(); len(res.Probes) == 0 || !strings.Contains(res.Probes[0], "book.title = 'DB2 Universal Database'") {
		t.Errorf("probes = %v", res.Probes)
	}
	if got := f.Exec.DB.RowCount("review"); got != 2 {
		t.Errorf("review count changed to %d", got)
	}
}

// TestApplyU4DataConflict: the duplicate-key insert is caught at the
// update point (Section 6.2) and the database is left unchanged.
func TestApplyU4DataConflict(t *testing.T) {
	for _, strat := range []Strategy{StrategyHybrid, StrategyOutside, StrategyInternal} {
		f := newFilter(t, strat)
		res, err := f.Apply(context.Background(), bookdb.U4)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if res.Accepted || res.RejectedAt != StepData {
			t.Errorf("%s: accepted=%v at=%d reason=%q", strat, res.Accepted, res.RejectedAt, res.Reason)
		}
		if !strings.Contains(res.Reason, "conflict") {
			t.Errorf("%s: reason = %q", strat, res.Reason)
		}
		if got := f.Exec.DB.RowCount("book"); got != 3 {
			t.Errorf("%s: book count = %d after rejected insert", strat, got)
		}
	}
}

// TestApplyU8DeletesReviews: the unconditional delete removes exactly
// the two reviews of the sub-$40 book.
func TestApplyU8DeletesReviews(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	res, err := f.Apply(context.Background(), bookdb.U8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("u8 rejected: %q", res.Reason)
	}
	if res.RowsAffected != 2 {
		t.Errorf("rows affected = %d, want 2", res.RowsAffected)
	}
	if got := f.Exec.DB.RowCount("review"); got != 0 {
		t.Errorf("review count = %d", got)
	}
	if got := f.Exec.DB.RowCount("book"); got != 3 {
		t.Errorf("book count = %d (books must survive)", got)
	}
	// The translated statement consumes the materialized probe (U3 shape).
	joined := strings.Join(res.SQL, "; ")
	if !strings.Contains(joined, "DELETE FROM review WHERE review.bookid IN (SELECT book.bookid FROM TAB_") {
		t.Errorf("SQL = %v", res.SQL)
	}
}

// TestApplyU9Minimized: deleting the $48 book removes the book row but
// NOT its publisher (translation minimization — the paper's example:
// publisher.t1 is still referenced by the first book).
func TestApplyU9Minimized(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	res, err := f.Apply(context.Background(), bookdb.U9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("u9 rejected: %q", res.Reason)
	}
	if got := f.Exec.DB.RowCount("book"); got != 2 {
		t.Errorf("book count = %d, want 2", got)
	}
	if got := f.Exec.DB.RowCount("publisher"); got != 3 {
		t.Errorf("publisher count = %d, want 3 (minimization keeps publishers)", got)
	}
	ids, _ := f.Exec.DB.LookupEqual("book", []string{"bookid"}, []relational.Value{relational.String_("98003")})
	if len(ids) != 0 {
		t.Error("book 98003 should be deleted")
	}
	// 98002 costs $45 (>40) but is not in the view (year 1985): the
	// probe's view predicates must protect it.
	ids, _ = f.Exec.DB.LookupEqual("book", []string{"bookid"}, []relational.Value{relational.String_("98002")})
	if len(ids) != 1 {
		t.Error("book 98002 must survive: it is not in the view")
	}
}

// TestApplyU11RejectedByContextProbe: the book exists in the base but
// not in the view (year 1985).
func TestApplyU11RejectedByContextProbe(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	res, err := f.Apply(context.Background(), bookdb.U11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.RejectedAt != StepData {
		t.Fatalf("u11: accepted=%v reason=%q", res.Accepted, res.Reason)
	}
}

// TestApplyU12ZeroTuples: hybrid reports the engine's warning; outside
// detects it early and suppresses the delete.
func TestApplyU12ZeroTuples(t *testing.T) {
	for _, strat := range []Strategy{StrategyHybrid, StrategyOutside} {
		f := newFilter(t, strat)
		res, err := f.Apply(context.Background(), bookdb.U12)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !res.Accepted {
			t.Fatalf("%s: rejected: %q", strat, res.Reason)
		}
		if res.RowsAffected != 0 {
			t.Errorf("%s: rows = %d", strat, res.RowsAffected)
		}
		if len(res.Warnings) == 0 {
			t.Errorf("%s: expected a zero-tuples warning", strat)
		}
		if strat == StrategyOutside && len(res.SQL) != 0 {
			t.Errorf("outside: delete should be suppressed, SQL = %v", res.SQL)
		}
	}
}

// TestApplyU13InsertsReview: the probe's bookid feeds the translated
// INSERT (the paper's U1 statement).
func TestApplyU13InsertsReview(t *testing.T) {
	for _, strat := range []Strategy{StrategyHybrid, StrategyOutside, StrategyInternal} {
		f := newFilter(t, strat)
		res, err := f.Apply(context.Background(), bookdb.U13)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !res.Accepted {
			t.Fatalf("%s: rejected: %q", strat, res.Reason)
		}
		ids, _ := f.Exec.DB.LookupEqual("review", []string{"bookid"}, []relational.Value{relational.String_("98003")})
		if len(ids) != 1 {
			t.Fatalf("%s: review not inserted", strat)
		}
		rid, comment := colValue(t, f.Exec.DB, "review", ids[0], "reviewid"), colValue(t, f.Exec.DB, "review", ids[0], "comment")
		if rid.Str != "001" || !strings.Contains(comment.Str, "Easy read") {
			t.Errorf("%s: inserted review = %v, %v", strat, rid, comment)
		}
	}
}

// TestApplyRejectionLeavesDatabaseUntouched is the transactional
// guarantee: every rejected update must leave zero trace.
func TestApplyRejectionLeavesDatabaseUntouched(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	before := f.Exec.DB.TotalRows()
	for _, u := range bookdb.AllUpdates() {
		res, err := f.Check(context.Background(), u.Text)
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		if !res.Accepted {
			continue
		}
		res, err = f.Apply(context.Background(), u.Text)
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		if !res.Accepted && f.Exec.DB.TotalRows() != before {
			t.Fatalf("%s: rejected update changed the database", u.Name)
		}
		before = f.Exec.DB.TotalRows()
	}
}

// TestBlindApplyDetectsSideEffect: the Fig. 14 baseline — blindly
// translating u10 (delete publisher of expensive books) cascades the
// book away; the view diff catches it and rolls back.
func TestBlindApplyDetectsSideEffect(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	before := f.Exec.DB.TotalRows()
	res, err := f.BlindApply(bookdb.U10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SideEffect || !res.RolledBack {
		t.Fatalf("blind u10: sideEffect=%v rolledBack=%v rows=%d", res.SideEffect, res.RolledBack, res.RowsTouched)
	}
	if f.Exec.DB.TotalRows() != before {
		t.Error("rollback did not restore the database")
	}
}

// TestBlindApplyCleanUpdateCommits: u8 has no side effect, so the blind
// path commits.
func TestBlindApplyCleanUpdateCommits(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	res, err := f.BlindApply(bookdb.U8)
	if err != nil {
		t.Fatal(err)
	}
	if res.SideEffect || res.RolledBack {
		t.Fatalf("blind u8: sideEffect=%v rolledBack=%v", res.SideEffect, res.RolledBack)
	}
	if got := f.Exec.DB.RowCount("review"); got != 0 {
		t.Errorf("review count = %d", got)
	}

	// Leaf replaces change one value in place; the view diff must
	// expect the new value, not flag it.
	for _, leaf := range []struct{ name, text, col, want string }{
		{"price", `<price>21.00</price>`, "price", "21"},
		{"title", `<title>TCP/IP Illustrated, Vol. 1</title>`, "title", "TCP/IP Illustrated, Vol. 1"},
	} {
		res, err := f.BlindApply(`
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98001"
UPDATE $book { REPLACE $book/` + leaf.name + ` WITH ` + leaf.text + ` }`)
		if err != nil {
			t.Fatal(err)
		}
		if res.SideEffect || res.RolledBack || res.RowsTouched != 1 {
			t.Fatalf("blind %s replace: sideEffect=%v rolledBack=%v rows=%d", leaf.name, res.SideEffect, res.RolledBack, res.RowsTouched)
		}
		ids, _ := f.Exec.DB.LookupEqual("book", []string{"bookid"}, []relational.Value{relational.String_("98001")})
		if got := colValue(t, f.Exec.DB, "book", ids[0], leaf.col).String(); got != leaf.want {
			t.Errorf("%s = %q after the blind replace, want %q", leaf.col, got, leaf.want)
		}
	}
}

// TestReplaceTitle: a leaf replace translates to an UPDATE.
func TestReplaceTitle(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	res, err := f.Apply(context.Background(), `
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98001"
UPDATE $book { REPLACE $book/title WITH <title>TCP/IP Illustrated, 2nd ed.</title> }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || res.RowsAffected != 1 {
		t.Fatalf("replace: accepted=%v rows=%d reason=%q", res.Accepted, res.RowsAffected, res.Reason)
	}
	ids, _ := f.Exec.DB.LookupEqual("book", []string{"bookid"}, []relational.Value{relational.String_("98001")})
	if title := colValue(t, f.Exec.DB, "book", ids[0], "title"); title.Str != "TCP/IP Illustrated, 2nd ed." {
		t.Errorf("title = %q", title.Str)
	}
}

// TestReplaceViolatingCheckRejected: replacing the price with a value
// outside the view's check range is invalid at Step 1.
func TestReplaceViolatingCheckRejected(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	res, err := f.Check(context.Background(), `
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98001"
UPDATE $book { REPLACE $book/price WITH <price>99.00</price> }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.RejectedAt != StepValidation {
		t.Fatalf("replace price 99: accepted=%v reason=%q", res.Accepted, res.Reason)
	}
}

// TestDeleteNullableLeaf: deleting the text of a nullable leaf no view
// predicate reads (a review's comment) is valid and translates to SET
// NULL. The price leaf is nullable too, but the view selects books by
// price < 50.00, which NULL fails: deleting it would take the book out
// of the view, so Step 1 rejects it.
func TestDeleteNullableLeaf(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	res, err := f.Apply(context.Background(), `
FOR $review IN document("BookView.xml")/book/review
WHERE $review/reviewid/text() = "001"
UPDATE $review { DELETE $review/comment/text() }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("rejected: %q", res.Reason)
	}
	ids, _ := f.Exec.DB.LookupEqual("review", []string{"reviewid"}, []relational.Value{relational.String_("001")})
	if comment := colValue(t, f.Exec.DB, "review", ids[0], "comment"); !comment.IsNull() {
		t.Errorf("comment = %v, want NULL", comment)
	}

	res, err = f.Apply(context.Background(), `
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98001"
UPDATE $book { DELETE $book/price/text() }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.RejectedAt != StepValidation || !strings.Contains(res.Reason, "the view selects on book.price") {
		t.Fatalf("price delete: accepted=%v at=%v reason=%q", res.Accepted, res.RejectedAt, res.Reason)
	}
}

// TestUnknownElementRejected: inserting an element the view schema
// does not know is invalid.
func TestUnknownElementRejected(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	res, err := f.Check(context.Background(), `
FOR $root IN document("BookView.xml")
UPDATE $root { INSERT <magazine><title>Wired</title></magazine> }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.Outcome != OutcomeInvalid {
		t.Fatalf("magazine insert: accepted=%v outcome=%s", res.Accepted, res.Outcome)
	}
}

// TestSatisfiability covers the Step-1 overlap solver.
func TestSatisfiability(t *testing.T) {
	gt := func(v float64) relational.CheckPredicate {
		return relational.CheckPredicate{Op: relational.OpGT, Operand: relational.Float_(v)}
	}
	lt := func(v float64) relational.CheckPredicate {
		return relational.CheckPredicate{Op: relational.OpLT, Operand: relational.Float_(v)}
	}
	eq := func(v float64) relational.CheckPredicate {
		return relational.CheckPredicate{Op: relational.OpEQ, Operand: relational.Float_(v)}
	}
	ne := func(v float64) relational.CheckPredicate {
		return relational.CheckPredicate{Op: relational.OpNE, Operand: relational.Float_(v)}
	}
	ge := func(v float64) relational.CheckPredicate {
		return relational.CheckPredicate{Op: relational.OpGE, Operand: relational.Float_(v)}
	}
	le := func(v float64) relational.CheckPredicate {
		return relational.CheckPredicate{Op: relational.OpLE, Operand: relational.Float_(v)}
	}
	cases := []struct {
		preds []relational.CheckPredicate
		want  bool
	}{
		{[]relational.CheckPredicate{gt(50), lt(50)}, false},         // u5
		{[]relational.CheckPredicate{gt(40), lt(50), gt(0)}, true},   // u9-style
		{[]relational.CheckPredicate{ge(50), le(50)}, true},          // point
		{[]relational.CheckPredicate{ge(50), le(50), ne(50)}, false}, // excluded point
		{[]relational.CheckPredicate{eq(10), lt(5)}, false},          // pinned out of range
		{[]relational.CheckPredicate{eq(10), eq(20)}, false},         // conflicting eq
		{[]relational.CheckPredicate{eq(10), gt(5), lt(15)}, true},   // pinned in range
		{[]relational.CheckPredicate{ne(10)}, true},                  // open
		{[]relational.CheckPredicate{gt(50), le(50)}, false},         // strict crossing
		{[]relational.CheckPredicate{eq(5), gt(5)}, false},           // pinned on a strict lower bound
		{[]relational.CheckPredicate{eq(5), lt(5)}, false},           // pinned on a strict upper bound
		{[]relational.CheckPredicate{eq(5), ne(5)}, false},           // pinned value excluded
	}
	// Integers past 2^53 that a float64 cannot tell apart.
	pin := func(op relational.CompareOp, v int64) relational.CheckPredicate {
		return relational.CheckPredicate{Op: op, Operand: relational.Int_(v)}
	}
	const big = 1 << 53
	cases = append(cases, []struct {
		preds []relational.CheckPredicate
		want  bool
	}{
		{[]relational.CheckPredicate{pin(relational.OpEQ, big+1), pin(relational.OpNE, big)}, true},  // x = 9007199254740993 ∧ x != 9007199254740992
		{[]relational.CheckPredicate{pin(relational.OpEQ, big+1), pin(relational.OpGT, big)}, true},  // pinned just above a strict bound
		{[]relational.CheckPredicate{pin(relational.OpEQ, big+1), pin(relational.OpEQ, big)}, false}, // conflicting eq
		{[]relational.CheckPredicate{pin(relational.OpEQ, big), pin(relational.OpLT, big+1)}, true},  // pinned just below a strict bound
	}...)
	for i, c := range cases {
		if got := checkConjunctionSatisfiable(c.preds); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
	// String equality contradictions.
	sEq := relational.CheckPredicate{Op: relational.OpEQ, Operand: relational.String_("a")}
	sEq2 := relational.CheckPredicate{Op: relational.OpEQ, Operand: relational.String_("b")}
	if checkConjunctionSatisfiable([]relational.CheckPredicate{sEq, sEq2}) {
		t.Error("conflicting string equalities should be unsatisfiable")
	}
}
