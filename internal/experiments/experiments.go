// Package experiments implements the harness that regenerates every
// table and figure of the paper's evaluation (Section 7). Each function
// produces the rows/series of one artifact; cmd/benchrunner prints them
// and bench_test.go wraps them in testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/relational"
	"repro/internal/tpch"
	"repro/internal/ufilter"
	"repro/internal/w3cusecases"
	"repro/internal/xqparse"
)

// ---------------------------------------------------------------------
// E1 — Fig. 12: W3C use-case expressiveness table.

// Fig12Row mirrors one row of the paper's Fig. 12.
type Fig12Row = w3cusecases.Row

// Fig12 returns the coverage table.
func Fig12() []Fig12Row { return w3cusecases.CoverageTable() }

// ---------------------------------------------------------------------
// E2 — Fig. 13: translatable view update over Vsuccess, per relation,
// with and without STAR checking.

// Fig13Row is one bar pair of Fig. 13.
type Fig13Row struct {
	Relation    string
	Update      time.Duration // execute a plan compiled beforehand: translate + execute only
	WithSTAR    time.Duration // parse + Steps 1-3 + translate + execute
	RowsDeleted int
}

// Fig13 deletes one element per relation level of Vsuccess and measures
// the update with and without the schema-level steps: the "update" bar
// executes a plan prepared outside the timer, the "with STAR" bar runs
// the whole Apply. Each measurement runs on a fresh database so the
// cascade sizes are comparable; the minimum of `reps` runs is reported
// to suppress scheduler noise.
func Fig13(mb, reps int) ([]Fig13Row, error) {
	if reps < 1 {
		reps = 1
	}
	var out []Fig13Row
	for _, rel := range tpch.Relations {
		upd := tpch.DeleteElementUpdate(rel, 1)
		row := Fig13Row{Relation: rel}
		for rep := 0; rep < reps; rep++ {
			f, err := newVsuccessFilter(mb)
			if err != nil {
				return nil, err
			}
			u, err := xqparse.ParseUpdate(upd)
			if err != nil {
				return nil, err
			}
			p, err := f.Compile(u)
			if err != nil {
				return nil, err
			}
			args := p.BindArgs(u)
			start := time.Now()
			res, err := f.Execute(p, args)
			if err != nil {
				return nil, fmt.Errorf("fig13 %s: %w", rel, err)
			}
			plain := time.Since(start)
			if !res.Accepted {
				return nil, fmt.Errorf("fig13 %s: rejected: %s", rel, res.Reason)
			}
			row.RowsDeleted = res.RowsAffected

			f2, err := newVsuccessFilter(mb)
			if err != nil {
				return nil, err
			}
			start = time.Now()
			res2, err := f2.Apply(context.Background(), upd)
			if err != nil {
				return nil, fmt.Errorf("fig13 %s (star): %w", rel, err)
			}
			withStar := time.Since(start)
			if !res2.Accepted {
				return nil, fmt.Errorf("fig13 %s (star): rejected: %s", rel, res2.Reason)
			}
			if row.Update == 0 || plain < row.Update {
				row.Update = plain
			}
			if row.WithSTAR == 0 || withStar < row.WithSTAR {
				row.WithSTAR = withStar
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// newVsuccessFilter builds a fresh Vsuccess filter over a fresh database.
func newVsuccessFilter(mb int) (*ufilter.Filter, error) {
	db, err := tpch.NewDatabaseMB(mb)
	if err != nil {
		return nil, err
	}
	return ufilter.New(tpch.VsuccessQuery, db)
}

// ---------------------------------------------------------------------
// E3 — Fig. 14: untranslatable view update over Vfail, per relation:
// blind translate-execute-compare-rollback vs STAR's static rejection.

// Fig14Row is one bar pair of Fig. 14.
type Fig14Row struct {
	Relation    string
	Blind       time.Duration // execute + view diff + rollback
	STAR        time.Duration // static rejection
	RowsTouched int
}

// Fig14 measures the blind baseline against the STAR rejection for each
// relation's failure view. The blind path rolls back, so repetitions
// reuse one database; minima over `reps` runs are reported.
func Fig14(mb, reps int) ([]Fig14Row, error) {
	if reps < 1 {
		reps = 1
	}
	var out []Fig14Row
	for _, rel := range tpch.Relations {
		upd := tpch.DeleteElementUpdate(rel, 1)
		db, err := tpch.NewDatabaseMB(mb)
		if err != nil {
			return nil, err
		}
		f, err := ufilter.New(tpch.VfailQuery(rel), db)
		if err != nil {
			return nil, err
		}
		row := Fig14Row{Relation: rel}
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			blindRes, err := f.BlindApply(upd)
			if err != nil {
				return nil, fmt.Errorf("fig14 %s: %w", rel, err)
			}
			blind := time.Since(start)
			if !blindRes.SideEffect || !blindRes.RolledBack {
				return nil, fmt.Errorf("fig14 %s: blind run should detect a side effect and roll back", rel)
			}
			row.RowsTouched = blindRes.RowsTouched

			// Compile, not Check: the plan cache would turn every rep
			// after the first into a map lookup and hide the STAR cost.
			start = time.Now()
			p, err := f.Prepare(upd)
			if err != nil {
				return nil, err
			}
			star := time.Since(start)
			if p.Verdict.Accepted {
				return nil, fmt.Errorf("fig14 %s: STAR should reject", rel)
			}
			if row.Blind == 0 || blind < row.Blind {
				row.Blind = blind
			}
			if row.STAR == 0 || star < row.STAR {
				row.STAR = star
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// E4 — §7.2 text: STAR marking cost for Vsuccess and Vfail.

// MarkingTimes reports the one-time compile cost of the STAR marking
// procedure per view.
type MarkingTimes struct {
	Vsuccess time.Duration
	Vfail    time.Duration
}

// STARMarking measures building + marking both ASGs.
func STARMarking(mb int) (MarkingTimes, error) {
	db, err := tpch.NewDatabaseMB(mb)
	if err != nil {
		return MarkingTimes{}, err
	}
	start := time.Now()
	if _, err := ufilter.New(tpch.VsuccessQuery, db); err != nil {
		return MarkingTimes{}, err
	}
	vs := time.Since(start)
	start = time.Now()
	if _, err := ufilter.New(tpch.VfailQuery("region"), db); err != nil {
		return MarkingTimes{}, err
	}
	vf := time.Since(start)
	return MarkingTimes{Vsuccess: vs, Vfail: vf}, nil
}

// ---------------------------------------------------------------------
// E5 — Fig. 15: internal vs external strategy for inserting a lineitem
// into Vlinear, over database sizes.

// Fig15Row is one x-position of Fig. 15. The probe counts are the
// index probes each strategy issued over its timed inserts: the
// internal strategy's wide view-tuple probe shows up there
// deterministically, where the timings only show it on a quiet machine.
type Fig15Row struct {
	MB             int
	Internal       time.Duration
	External       time.Duration
	InternalProbes int64
	ExternalProbes int64
	Rows           int // database rows, for the report
}

// Fig15 measures repeated lineitem inserts under both strategies. The
// databases persist across iterations (inserts use fresh keys).
func Fig15(sizes []int, itersPerSize int) ([]Fig15Row, error) {
	var out []Fig15Row
	for _, mb := range sizes {
		db, err := tpch.NewDatabaseMB(mb)
		if err != nil {
			return nil, err
		}
		internal, err := ufilter.New(tpch.VlinearQuery, db)
		if err != nil {
			return nil, err
		}
		internal.Strategy = ufilter.StrategyInternal
		external, err := ufilter.New(tpch.VlinearQuery, db)
		if err != nil {
			return nil, err
		}
		external.Strategy = ufilter.StrategyHybrid

		row := Fig15Row{MB: mb, Rows: db.TotalRows()}
		orders := tpch.RowsForMB(mb).Orders
		key := func(i int) int64 { return int64(i%(orders-2) + 1) }
		// Warm both paths once so one-time costs do not skew the series.
		if _, err := internal.Apply(context.Background(), tpch.InsertLineitemUpdate(key(0), 500)); err != nil {
			return nil, err
		}
		if _, err := external.Apply(context.Background(), tpch.InsertLineitemUpdate(key(0), 501)); err != nil {
			return nil, err
		}
		probes := internal.Exec.IndexProbesTotal()
		start := time.Now()
		for i := 0; i < itersPerSize; i++ {
			res, err := internal.Apply(context.Background(), tpch.InsertLineitemUpdate(key(i), int64(1000+i)))
			if err != nil {
				return nil, fmt.Errorf("fig15 internal mb=%d: %w", mb, err)
			}
			if !res.Accepted {
				return nil, fmt.Errorf("fig15 internal mb=%d: rejected: %s", mb, res.Reason)
			}
		}
		row.Internal = time.Since(start) / time.Duration(itersPerSize)
		row.InternalProbes = internal.Exec.IndexProbesTotal() - probes
		probes = external.Exec.IndexProbesTotal()
		start = time.Now()
		for i := 0; i < itersPerSize; i++ {
			res, err := external.Apply(context.Background(), tpch.InsertLineitemUpdate(key(i), int64(5000+i)))
			if err != nil {
				return nil, fmt.Errorf("fig15 external mb=%d: %w", mb, err)
			}
			if !res.Accepted {
				return nil, fmt.Errorf("fig15 external mb=%d: rejected: %s", mb, res.Reason)
			}
		}
		row.External = time.Since(start) / time.Duration(itersPerSize)
		row.ExternalProbes = external.Exec.IndexProbesTotal() - probes
		out = append(out, row)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// E6 — Fig. 16: hybrid vs outside over Vbush (successful updates).

// Fig16Row is one x-position of Fig. 16.
type Fig16Row struct {
	MB      int
	Hybrid  time.Duration
	Outside time.Duration
}

// Fig16 measures a successful orderline insert+delete workload over the
// bushy view under both external strategies.
func Fig16(sizes []int, itersPerSize int) ([]Fig16Row, error) {
	var out []Fig16Row
	for _, mb := range sizes {
		row := Fig16Row{MB: mb}
		for _, strat := range []ufilter.Strategy{ufilter.StrategyHybrid, ufilter.StrategyOutside} {
			db, err := tpch.NewDatabaseMB(mb)
			if err != nil {
				return nil, err
			}
			f, err := ufilter.New(tpch.VbushQuery, db)
			if err != nil {
				return nil, err
			}
			f.Strategy = strat
			start := time.Now()
			for i := 0; i < itersPerSize; i++ {
				cust := int64(i + 1)
				res, err := f.Apply(context.Background(), tpch.InsertOrderlineUpdateBush(cust, int64(9000000+i), 1))
				if err != nil {
					return nil, fmt.Errorf("fig16 %s mb=%d: %w", strat, mb, err)
				}
				if !res.Accepted {
					return nil, fmt.Errorf("fig16 %s mb=%d: rejected: %s", strat, mb, res.Reason)
				}
				res, err = f.Apply(context.Background(), fmt.Sprintf(`
FOR $c IN document("view.xml")/customer
WHERE $c/c_custkey/text() = "%d"
UPDATE $c { DELETE $c/orderline }`, cust))
				if err != nil {
					return nil, fmt.Errorf("fig16 %s mb=%d delete: %w", strat, mb, err)
				}
				if !res.Accepted {
					return nil, fmt.Errorf("fig16 %s mb=%d delete: rejected: %s", strat, mb, res.Reason)
				}
			}
			elapsed := time.Since(start) / time.Duration(itersPerSize)
			if strat == ufilter.StrategyHybrid {
				row.Hybrid = elapsed
			} else {
				row.Outside = elapsed
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// E7 — Fig. 17: hybrid vs outside over Vlinear, failed cases.

// Fig17Row is one x-position of Fig. 17. The statement counts record
// the early-detection effect: the outside strategy suppresses the DML
// statements whose probes come back empty.
type Fig17Row struct {
	MB           int
	HybridFail1  time.Duration
	OutsideFail1 time.Duration
	HybridFail2  time.Duration
	OutsideFail2 time.Duration
	HybridStmts  int
	OutsideStmts int
}

// Fig17 measures the two failed-case scenarios: Fail1 — the customer
// has no orders at all, so no table is updated; Fail2 — orders exist
// but carry no lineitems, so the customer and order deletes succeed
// while the lineitem delete matches nothing.
func Fig17(sizes []int, itersPerSize int) ([]Fig17Row, error) {
	var out []Fig17Row
	for _, mb := range sizes {
		row := Fig17Row{MB: mb}
		for _, strat := range []ufilter.Strategy{ufilter.StrategyHybrid, ufilter.StrategyOutside} {
			f1, f2, stmts, err := fig17Run(mb, strat, itersPerSize)
			if err != nil {
				return nil, err
			}
			if strat == ufilter.StrategyHybrid {
				row.HybridFail1, row.HybridFail2, row.HybridStmts = f1, f2, stmts
			} else {
				row.OutsideFail1, row.OutsideFail2, row.OutsideStmts = f1, f2, stmts
			}
		}
		out = append(out, row)
	}
	return out, nil
}

func fig17Run(mb int, strat ufilter.Strategy, iters int) (fail1, fail2 time.Duration, stmts int, err error) {
	db, err := tpch.NewDatabaseMB(mb)
	if err != nil {
		return 0, 0, 0, err
	}
	rows := tpch.RowsForMB(mb)
	// Prepare Fail1 customers (no orders) and Fail2 customers (orders
	// without lineitems). Orders are assigned round-robin, so customer
	// k owns orders {k, k+customers, k+2*customers, ...}.
	fail1Cust := make([]int64, iters)
	fail2Cust := make([]int64, iters)
	tx := db.Begin()
	deleteWhere := func(table, col string, key int) error {
		ids, err := tx.LookupEqual(table, []string{col}, []relational.Value{relational.Int_(int64(key))})
		if err != nil {
			return err
		}
		for _, id := range ids {
			if _, err := tx.Delete(table, id); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < iters; i++ {
		c1 := int64(i)
		c2 := int64(iters + i)
		fail1Cust[i], fail2Cust[i] = c1, c2
		for o := int(c1); o < rows.Orders; o += rows.Customers {
			if err := deleteWhere("orders", "o_orderkey", o); err != nil {
				_ = tx.Rollback()
				return 0, 0, 0, err
			}
		}
		for o := int(c2); o < rows.Orders; o += rows.Customers {
			if err := deleteWhere("lineitem", "l_orderkey", o); err != nil {
				_ = tx.Rollback()
				return 0, 0, 0, err
			}
		}
	}
	if err := tx.Commit(); err != nil {
		return 0, 0, 0, err
	}
	f, err := ufilter.New(tpch.VlinearQuery, db)
	if err != nil {
		return 0, 0, 0, err
	}
	f.Strategy = strat

	deleteSubtree := func(cust int64) (*ufilter.Result, error) {
		return f.Apply(context.Background(), fmt.Sprintf(`
FOR $c IN document("view.xml")/region/nation/customer
WHERE $c/c_custkey/text() = "%d"
UPDATE $c { DELETE $c/order/lineitem, DELETE $c/order }`, cust))
	}

	start := time.Now()
	for i := 0; i < iters; i++ {
		res, err := deleteSubtree(fail1Cust[i])
		if err != nil {
			return 0, 0, 0, fmt.Errorf("fig17 fail1 %s: %w", strat, err)
		}
		if !res.Accepted || res.RowsAffected != 0 {
			return 0, 0, 0, fmt.Errorf("fig17 fail1 %s: rows=%d reason=%s", strat, res.RowsAffected, res.Reason)
		}
		stmts += len(res.SQL)
	}
	fail1 = time.Since(start) / time.Duration(iters)

	start = time.Now()
	for i := 0; i < iters; i++ {
		res, err := deleteSubtree(fail2Cust[i])
		if err != nil {
			return 0, 0, 0, fmt.Errorf("fig17 fail2 %s: %w", strat, err)
		}
		if !res.Accepted {
			return 0, 0, 0, fmt.Errorf("fig17 fail2 %s: %s", strat, res.Reason)
		}
		stmts += len(res.SQL)
	}
	fail2 = time.Since(start) / time.Duration(iters)
	return fail1, fail2, stmts, nil
}
