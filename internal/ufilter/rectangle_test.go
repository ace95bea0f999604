package ufilter

import (
	"testing"

	"repro/internal/bookdb"
	"repro/internal/psd"
	"repro/internal/relational"
	"repro/internal/tpch"
	"repro/internal/viewengine"
	"repro/internal/xmltree"
	"repro/internal/xqparse"
)

// applyUpdateToXML edits a materialized view the way the update intends,
// producing the expected after-image u(DEF_V(D)) of Definition 1.
func applyUpdateToXML(t *testing.T, f *Filter, updateText string, doc *xmltree.Node) *xmltree.Node {
	t.Helper()
	u, err := xqparse.ParseUpdate(updateText)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Resolve(u, f.View)
	if err != nil {
		t.Fatal(err)
	}
	return expectedView(doc, r)
}

// TestRectangleRuleBookDeletes verifies u(DEF_V(D)) == DEF_V(U(D)) for
// the accepted deletes of the running example: executing the translated
// SQL and re-materializing yields exactly the view with the intended
// elements removed — no side effects, nothing missed.
func TestRectangleRuleBookDeletes(t *testing.T) {
	for _, upd := range []struct{ name, text string }{
		{"u8", bookdb.U8},
		{"u9", bookdb.U9},
	} {
		db, err := bookdb.NewDatabase(relational.DeleteCascade)
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(bookdb.ViewQuery, db)
		if err != nil {
			t.Fatal(err)
		}
		eng := &viewengine.Engine{Exec: f.Exec}
		before, err := eng.Materialize(f.View.Query)
		if err != nil {
			t.Fatal(err)
		}
		expected := applyUpdateToXML(t, f, upd.text, before)

		res, err := f.Apply(upd.text)
		if err != nil {
			t.Fatalf("%s: %v", upd.name, err)
		}
		if !res.Accepted {
			t.Fatalf("%s rejected: %s", upd.name, res.Reason)
		}
		after, err := eng.Materialize(f.View.Query)
		if err != nil {
			t.Fatal(err)
		}
		if !expected.Equal(after) {
			t.Errorf("%s: rectangle rule violated\nexpected:\n%s\nactual:\n%s",
				upd.name, expected, after)
		}
	}
}

// TestRectangleRuleReviewInsert: u13's insert appears exactly once in
// the right book and nowhere else.
func TestRectangleRuleReviewInsert(t *testing.T) {
	db, err := bookdb.NewDatabase(relational.DeleteCascade)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(bookdb.ViewQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	eng := &viewengine.Engine{Exec: f.Exec}
	before, err := eng.Materialize(f.View.Query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Apply(bookdb.U13)
	if err != nil || !res.Accepted {
		t.Fatalf("u13: %v %+v", err, res)
	}
	after, err := eng.Materialize(f.View.Query)
	if err != nil {
		t.Fatal(err)
	}
	// The target book gains exactly one review; everything else equal.
	var target *xmltree.Node
	for _, b := range after.ChildrenNamed("book") {
		if b.ChildText("title") == "Data on the Web" {
			target = b
		}
	}
	if target == nil {
		t.Fatal("target book missing after update")
	}
	reviews := target.ChildrenNamed("review")
	if len(reviews) != 1 || reviews[0].ChildText("comment") != "Easy read and useful." {
		t.Fatalf("reviews = %+v", reviews)
	}
	// Remove the inserted review and the views must match.
	target.RemoveChild(reviews[0])
	if !before.Equal(after) {
		t.Errorf("side effects beyond the inserted review:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestRectangleRuleTPCH: deleting one customer element from Vsuccess
// removes exactly that subtree.
func TestRectangleRuleTPCH(t *testing.T) {
	db, err := tpch.NewDatabaseMB(1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(tpch.VsuccessQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	eng := &viewengine.Engine{Exec: f.Exec}
	before, err := eng.Materialize(f.View.Query)
	if err != nil {
		t.Fatal(err)
	}
	upd := tpch.DeleteElementUpdate("customer", 3)
	expected := applyUpdateToXML(t, f, upd, before)

	res, err := f.Apply(upd)
	if err != nil || !res.Accepted {
		t.Fatalf("%v %+v", err, res)
	}
	after, err := eng.Materialize(f.View.Query)
	if err != nil {
		t.Fatal(err)
	}
	if !expected.Equal(after) {
		t.Error("rectangle rule violated for Vsuccess customer delete")
	}
}

// TestRectangleRulePSD: deleting a protein removes exactly its element;
// the shared organism list under the root is untouched.
func TestRectangleRulePSD(t *testing.T) {
	db, err := psd.NewDatabase(20)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(psd.ViewQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	eng := &viewengine.Engine{Exec: f.Exec}
	before, err := eng.Materialize(f.View.Query)
	if err != nil {
		t.Fatal(err)
	}
	upd := psd.DeleteProtein("P00005")
	expected := applyUpdateToXML(t, f, upd, before)

	res, err := f.Apply(upd)
	if err != nil || !res.Accepted {
		t.Fatalf("%v %+v", err, res)
	}
	after, err := eng.Materialize(f.View.Query)
	if err != nil {
		t.Fatal(err)
	}
	if !expected.Equal(after) {
		t.Error("rectangle rule violated for PSD protein delete")
	}
	if got := len(after.ChildrenNamed("organism")); got != 5 {
		t.Errorf("organisms at root = %d, want 5", got)
	}
}

// TestNoOpUpdateLeavesBaseUntouched: Definition 1's second criterion —
// an update that does not affect the view must not affect the base
// either (u12 matches a book with no reviews).
func TestNoOpUpdateLeavesBaseUntouched(t *testing.T) {
	db, err := bookdb.NewDatabase(relational.DeleteCascade)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(bookdb.ViewQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	before := db.TotalRows()
	res, err := f.Apply(bookdb.U12)
	if err != nil || !res.Accepted {
		t.Fatalf("%v %+v", err, res)
	}
	if db.TotalRows() != before {
		t.Error("no-op view update modified the base database")
	}
}
