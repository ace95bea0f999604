package psd

import (
	"context"
	"testing"

	"repro/internal/relational"
	"repro/internal/ufilter"
)

func newPSDFilter(t testing.TB) *ufilter.Filter {
	t.Helper()
	db, err := NewDatabase(50)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ufilter.New(ViewQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPSDLoad(t *testing.T) {
	db, err := NewDatabase(50)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.RowCount("protein"); got != 50 {
		t.Errorf("proteins = %d", got)
	}
	if got := db.RowCount("citation"); got == 0 {
		t.Error("no citations")
	}
}

// TestSetNullPolicy: deleting an organism nulls protein.oid instead of
// cascading — the §7.3 domain behavior.
func TestSetNullPolicy(t *testing.T) {
	db, err := NewDatabase(10)
	if err != nil {
		t.Fatal(err)
	}
	before := db.RowCount("protein")
	ids, _ := db.LookupEqual("organism", []string{"oid"}, []relational.Value{relational.String_("O1")})
	txn := db.Begin()
	if _, err := txn.Delete("organism", ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.RowCount("protein") != before {
		t.Error("proteins must survive organism deletion under SET NULL")
	}
	pids, _ := db.LookupEqual("protein", []string{"pid"}, []relational.Value{relational.String_("P00000")})
	row, err := db.Get("protein", pids[0])
	if err != nil {
		t.Fatal(err)
	}
	def, _ := db.Schema().Table("protein")
	if oid, _ := def.ColumnIndex("oid"); !row.Values[oid].IsNull() {
		t.Errorf("protein.oid = %v, want NULL", row.Values[oid])
	}
}

// TestNonWellNestedViewAccepted: U-Filter builds the ASG and STAR marks
// for the non-well-nested view without restriction — the paper's §7.3
// practicality claim.
func TestNonWellNestedViewAccepted(t *testing.T) {
	f := newPSDFilter(t)
	if got := len(f.View.InternalNodes()); got != 4 {
		t.Fatalf("internal nodes = %d", got)
	}
	// protein (dirty | s-d ^ u-i), organism-in-protein (u-d), citation
	// (clean | s-d ^ s-i), organism-at-root: under SET NULL the
	// organism's mapping closure has no cascaded subtree, so it is
	// CLEAN (contrast BookView's vC4 which is dirty under CASCADE).
	in := f.View.InternalNodes()
	protein, orgIn, citation, orgRoot := in[0], in[1], in[2], in[3]
	if !protein.UCtx.SafeDelete || protein.UCtx.SafeInsert {
		t.Errorf("protein = %s", protein.UCtx)
	}
	if orgIn.UCtx.SafeDelete {
		t.Errorf("organism-in-protein should be unsafe-delete, got %s", orgIn.UCtx)
	}
	if !citation.UCtx.SafeDelete || !citation.UCtx.SafeInsert || !citation.Clean {
		t.Errorf("citation = (clean=%v | %s)", citation.Clean, citation.UCtx)
	}
	if !orgRoot.Clean {
		t.Error("organism-at-root should be clean under SET NULL")
	}
	if !orgRoot.UCtx.SafeDelete {
		// Deleting a root organism SET-NULLs protein.oid, which removes
		// the protein element from the view (its join fails): organism
		// is still unsafe-delete, matching the paper's u2 note that SET
		// NULL does not rescue deletes that feed view joins.
		t.Log("organism-at-root marked safe-delete")
	}
}

// TestPSDUpdates: citation edits are translatable; deleting the nested
// organism is not.
func TestPSDUpdates(t *testing.T) {
	f := newPSDFilter(t)
	res, err := f.Apply(context.Background(), InsertCitation("P00001", "C9", "New structural study"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("insert citation rejected: %s", res.Reason)
	}
	ids, _ := f.Exec.DB.LookupEqual("citation", []string{"pid", "cid"},
		[]relational.Value{relational.String_("P00001"), relational.String_("C9")})
	if len(ids) != 1 {
		t.Error("citation not inserted")
	}

	res, err = f.Apply(context.Background(), DeleteCitations("P00001"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || res.RowsAffected == 0 {
		t.Fatalf("delete citations: accepted=%v rows=%d (%s)", res.Accepted, res.RowsAffected, res.Reason)
	}

	res, err = f.Check(context.Background(), DeleteOrganismInProtein("P00002"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Error("deleting the nested organism should be untranslatable")
	}

	res, err = f.Apply(context.Background(), DeleteProtein("P00003"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("delete protein rejected: %s", res.Reason)
	}
	pids, _ := f.Exec.DB.LookupEqual("protein", []string{"pid"}, []relational.Value{relational.String_("P00003")})
	if len(pids) != 0 {
		t.Error("protein not deleted")
	}
	// Organisms survive (minimized translation).
	if got := f.Exec.DB.RowCount("organism"); got != 5 {
		t.Errorf("organisms = %d", got)
	}
}

// TestShortProteinNotInView: the view filters length > 100; a protein
// below the bound must be rejected by the context probe.
func TestShortProteinNotInView(t *testing.T) {
	f := newPSDFilter(t)
	txn := f.Exec.DB.BeginTxn()
	if _, err := txn.Insert("protein", map[string]relational.Value{
		"pid": relational.String_("P99999"), "name": relational.String_("tiny peptide"),
		"oid": relational.String_("O1"), "length": relational.Int_(12),
	}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := f.Apply(context.Background(), InsertCitation("P99999", "C1", "should fail"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Error("citation insert into out-of-view protein must be rejected")
	}
}
