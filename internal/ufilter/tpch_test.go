package ufilter

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/relational"
	"repro/internal/tpch"
)

func tpchFilter(t testing.TB, viewQuery string, mb int) *Filter {
	t.Helper()
	db, err := tpch.NewDatabaseMB(mb)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(viewQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestVsuccessAllUnconditional reproduces the Section 7.2 claim:
// updates over any internal node of Vsuccess are unconditionally
// translatable.
func TestVsuccessAllUnconditional(t *testing.T) {
	f := tpchFilter(t, tpch.VsuccessQuery, 1)
	for _, n := range f.View.InternalNodes() {
		if !n.UCtx.SafeDelete || !n.UCtx.SafeInsert || !n.Clean {
			t.Errorf("%s <%s>: (clean=%v | %s), want (clean | s-d^s-i)", n.Label(), n.Name, n.Clean, n.UCtx)
		}
		v := f.Marks.CheckDelete(n)
		if v.Outcome != OutcomeUnconditional {
			t.Errorf("delete %s: %s (%s)", n.Name, v.Outcome, v.Reason)
		}
		v = f.Marks.CheckInsert(n)
		if v.Outcome != OutcomeUnconditional {
			t.Errorf("insert %s: %s (%s)", n.Name, v.Outcome, v.Reason)
		}
	}
	for _, rel := range tpch.Relations {
		res, err := f.Check(context.Background(), tpch.DeleteElementUpdate(rel, 0))
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		if !res.Accepted || res.Outcome != OutcomeUnconditional {
			t.Errorf("%s delete: accepted=%v outcome=%s (%s)", rel, res.Accepted, res.Outcome, res.Reason)
		}
	}
}

// TestVfailRepublishedRelationUntranslatable: deleting the relation
// republished under the root is untranslatable; the STAR check catches
// it statically.
func TestVfailRepublishedRelationUntranslatable(t *testing.T) {
	for _, rel := range tpch.Relations {
		f := tpchFilter(t, tpch.VfailQuery(rel), 1)
		res, err := f.Check(context.Background(), tpch.DeleteElementUpdate(rel, 0))
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		if res.Accepted || res.RejectedAt != StepSTAR || res.Outcome != OutcomeUntranslatable {
			t.Errorf("Vfail(%s): accepted=%v at=%d outcome=%s (%s)",
				rel, res.Accepted, res.RejectedAt, res.Outcome, res.Reason)
		}
	}
}

// TestVfailOtherRelationsStillSafe: in Vfail(region), deleting a
// nation is still fine — only the republished relation is poisoned.
func TestVfailOtherRelationsStillSafe(t *testing.T) {
	f := tpchFilter(t, tpch.VfailQuery("region"), 1)
	res, err := f.Check(context.Background(), tpch.DeleteElementUpdate("nation", 3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Errorf("nation delete under Vfail(region): %s (%s)", res.Outcome, res.Reason)
	}
}

// TestApplyDeleteCascades: deleting a customer element removes the
// customer and its orders/lineitems, nothing else.
func TestApplyDeleteCascades(t *testing.T) {
	f := tpchFilter(t, tpch.VsuccessQuery, 1)
	db := f.Exec.DB
	ordersBefore := db.RowCount("orders")
	res, err := f.Apply(context.Background(), tpch.DeleteElementUpdate("customer", 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("rejected: %s", res.Reason)
	}
	ids, _ := db.LookupEqual("customer", []string{"c_custkey"}, []relational.Value{relational.Int_(2)})
	if len(ids) != 0 {
		t.Error("customer 2 still present")
	}
	if db.RowCount("orders") >= ordersBefore {
		t.Error("orders of customer 2 not cascaded")
	}
	if db.RowCount("nation") != 25 {
		t.Error("nations must be untouched")
	}
}

// TestApplyInsertLineitem: the Fig. 15 update inserts one lineitem
// wired to its order through the probe result, under all strategies.
func TestApplyInsertLineitem(t *testing.T) {
	for _, strat := range []Strategy{StrategyHybrid, StrategyOutside, StrategyInternal} {
		f := tpchFilter(t, tpch.VlinearQuery, 1)
		f.Strategy = strat
		before := f.Exec.DB.RowCount("lineitem")
		res, err := f.Apply(context.Background(), tpch.InsertLineitemUpdate(10, 99))
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !res.Accepted {
			t.Fatalf("%s: rejected: %s", strat, res.Reason)
		}
		if got := f.Exec.DB.RowCount("lineitem"); got != before+1 {
			t.Errorf("%s: lineitem count %d -> %d", strat, before, got)
		}
		ids, _ := f.Exec.DB.LookupEqual("lineitem", []string{"l_orderkey", "l_linenumber"},
			[]relational.Value{relational.Int_(10), relational.Int_(99)})
		if len(ids) != 1 {
			t.Errorf("%s: inserted lineitem not found", strat)
		}
	}
}

// TestInsertLineitemDuplicateRejected: inserting an existing
// (orderkey, linenumber) is a data conflict under every strategy.
func TestInsertLineitemDuplicateRejected(t *testing.T) {
	for _, strat := range []Strategy{StrategyHybrid, StrategyOutside, StrategyInternal} {
		f := tpchFilter(t, tpch.VlinearQuery, 1)
		f.Strategy = strat
		res, err := f.Apply(context.Background(), tpch.InsertLineitemUpdate(10, 1))
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if res.Accepted || res.RejectedAt != StepData {
			t.Errorf("%s: accepted=%v reason=%q", strat, res.Accepted, res.Reason)
		}
	}
}

// TestInsertIntoMissingOrderRejected: the context probe catches an
// order that does not exist.
func TestInsertIntoMissingOrderRejected(t *testing.T) {
	f := tpchFilter(t, tpch.VlinearQuery, 1)
	res, err := f.Apply(context.Background(), tpch.InsertLineitemUpdate(99999999, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.RejectedAt != StepData {
		t.Errorf("accepted=%v reason=%q", res.Accepted, res.Reason)
	}
}

// TestProbePruning: the external-strategy probe for a lineitem insert
// touches only the orders relation (FK chain is NOT NULL), matching the
// paper's "only retrieves the L_ORDERKEY" observation, while the
// internal strategy's wide probe joins all four ancestors.
func TestProbePruning(t *testing.T) {
	f := tpchFilter(t, tpch.VlinearQuery, 1)
	res, err := f.Apply(context.Background(), tpch.InsertLineitemUpdate(11, 99))
	if err != nil {
		t.Fatal(err)
	}
	if res.RenderProbes(); !res.Accepted || len(res.Probes) == 0 {
		t.Fatalf("accepted=%v probes=%v", res.Accepted, res.Probes)
	}
	probe := res.Probes[0]
	if !strings.Contains(probe, "FROM orders") {
		t.Errorf("probe = %q", probe)
	}
	for _, unwanted := range []string{"region", "nation", "customer"} {
		if strings.Contains(probe, unwanted) {
			t.Errorf("probe should prune %s: %q", unwanted, probe)
		}
	}

	fi := tpchFilter(t, tpch.VlinearQuery, 1)
	fi.Strategy = StrategyInternal
	res, err = fi.Apply(context.Background(), tpch.InsertLineitemUpdate(11, 99))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("internal rejected: %s", res.Reason)
	}
	res.RenderProbes()
	wide := ""
	for _, p := range res.Probes {
		if strings.Contains(p, "customer") {
			wide = p
		}
	}
	if wide == "" || !strings.Contains(wide, "region") || !strings.Contains(wide, "nation") {
		t.Errorf("internal wide probe missing ancestors: %v", res.Probes)
	}
}

// TestVbushInsertAndDelete: the bushy view supports inserting an
// order+lineitem pair and deleting orderline instances.
func TestVbushInsertAndDelete(t *testing.T) {
	f := tpchFilter(t, tpch.VbushQuery, 1)
	db := f.Exec.DB
	ordersBefore := db.RowCount("orders")
	res, err := f.Apply(context.Background(), tpch.InsertOrderlineUpdateBush(1, 9999991, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("bush insert rejected: %s", res.Reason)
	}
	if db.RowCount("orders") != ordersBefore+1 {
		t.Errorf("order not inserted")
	}
	ids, _ := db.LookupEqual("lineitem", []string{"l_orderkey"}, []relational.Value{relational.Int_(9999991)})
	if len(ids) != 1 {
		t.Errorf("lineitem not inserted")
	}

	// Delete the orderlines of customer 1 (anchor = lineitem).
	liBefore := db.RowCount("lineitem")
	res, err = f.Apply(context.Background(), `
FOR $c IN document("view.xml")/customer
WHERE $c/c_custkey/text() = "1"
UPDATE $c { DELETE $c/orderline }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("bush delete rejected: %s", res.Reason)
	}
	if db.RowCount("lineitem") >= liBefore {
		t.Error("orderlines not deleted")
	}
	if db.RowCount("orders") != ordersBefore+1 {
		t.Error("orders must survive an orderline delete (minimization)")
	}
}

// TestBlindApplyVfail: the Fig. 14 baseline on the failure view —
// blindly deleting a region cascades everything, the view diff detects
// the side effect, and rollback restores the database.
func TestBlindApplyVfail(t *testing.T) {
	f := tpchFilter(t, tpch.VfailQuery("region"), 1)
	before := f.Exec.DB.TotalRows()
	res, err := f.BlindApply(tpch.DeleteElementUpdate("region", 0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.SideEffect || !res.RolledBack {
		t.Fatalf("sideEffect=%v rolledBack=%v rowsTouched=%d", res.SideEffect, res.RolledBack, res.RowsTouched)
	}
	if res.RowsTouched < before/10 {
		t.Errorf("blind delete touched only %d rows", res.RowsTouched)
	}
	if f.Exec.DB.TotalRows() != before {
		t.Error("rollback incomplete")
	}
}

// TestFail2Shape: the Fig. 17 Fail2 scenario — an order exists but has
// no lineitems; outside suppresses the delete, hybrid executes it and
// gets the zero-tuples warning.
func TestFail2Shape(t *testing.T) {
	for _, strat := range []Strategy{StrategyHybrid, StrategyOutside} {
		f := tpchFilter(t, tpch.VlinearQuery, 1)
		f.Strategy = strat
		// Strip order 10's lineitems first.
		ids, _ := f.Exec.DB.LookupEqual("lineitem", []string{"l_orderkey"}, []relational.Value{relational.Int_(10)})
		txn := f.Exec.DB.BeginTxn()
		for _, id := range ids {
			if _, err := txn.Delete("lineitem", id); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		res, err := f.Apply(context.Background(), tpch.DeleteLineitemsOfOrder(10))
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !res.Accepted || res.RowsAffected != 0 {
			t.Fatalf("%s: accepted=%v rows=%d (%s)", strat, res.Accepted, res.RowsAffected, res.Reason)
		}
		if len(res.Warnings) == 0 {
			t.Errorf("%s: expected a warning", strat)
		}
		if strat == StrategyOutside && len(res.SQL) != 0 {
			t.Errorf("outside: DML should be suppressed, got %v", res.SQL)
		}
		if strat == StrategyHybrid && len(res.SQL) == 0 {
			t.Errorf("hybrid: DML should be issued")
		}
	}
}

// TestColdOrderProbesLoadNoPage: with every row page-only behind a
// small pool, a wipe's data check (its context probe reads orders by
// key) and a lineitem insert's foreign-key check on that order load no
// page, since orders' key index is exact and a page-only candidate of
// it matches as it stands; a lineitem delete's probe, on the composite
// (hashed) key, still loads one to verify.
func TestColdOrderProbesLoadNoPage(t *testing.T) {
	db, err := tpch.NewDatabaseMB(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.OpenWAL(t.TempDir(), relational.WALOptions{PageCacheBytes: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	f, err := New(tpch.VlinearQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	gets := func() int64 {
		st := db.Stats()
		return st.PagecacheHits + st.PagecacheMisses
	}
	snap := db.Snapshot()
	defer snap.Close()
	const order = 7
	check := func(text string, wantGets int64) {
		t.Helper()
		g := gets()
		res, err := f.CheckDataAt(snap, text)
		if err != nil || !res.Accepted {
			t.Fatalf("%s: %+v, %v", text, res, err)
		}
		if got := gets() - g; got != wantGets {
			t.Errorf("%s: %d pool gets, want %d", text, got, wantGets)
		}
	}
	check(tpch.DeleteLineitemsOfOrder(order), 0)

	g := gets()
	tx := db.Begin()
	if _, err := tx.Insert("lineitem", map[string]relational.Value{
		"l_orderkey": relational.Int_(order), "l_linenumber": relational.Int_(99), "l_quantity": relational.Float_(1),
	}); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if got := gets() - g; got != 0 {
		t.Errorf("a lineitem insert's checks on a cold order: %d pool gets, want 0", got)
	}

	check(fmt.Sprintf(`
FOR $t IN document("view.xml")/region/nation/customer/order/lineitem
WHERE $t/l_orderkey/text() = "%d" AND $t/l_linenumber/text() = "1"
UPDATE $t { DELETE $t }`, order), 1)
}
