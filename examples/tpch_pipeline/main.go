// TPC-H pipeline: build the five-relation TPC-H-like database, compile
// the Section 7.2 experiment views, and compare the three data-driven
// update-point strategies on the same updates.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	repro "repro"
	"repro/internal/tpch"
)

func main() {
	ctx := context.Background()
	const mb = 5
	fmt.Printf("Building TPC-H-like database (~%d MB nominal)...\n", mb)
	rows := tpch.RowsForMB(mb)
	fmt.Printf("  region=%d nation=%d customer=%d orders=%d lineitem=%d\n\n",
		rows.Regions, rows.Nations, rows.Customers, rows.Orders, rows.Lineitems)

	// Vsuccess: nesting follows the FK chain; every internal node is
	// unconditionally updatable.
	db, err := tpch.NewDatabaseMB(mb)
	if err != nil {
		log.Fatal(err)
	}
	f, err := repro.NewFilter(tpch.VsuccessQuery, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Vsuccess STAR marks:")
	fmt.Println(f.Marks.MarkString())

	for _, rel := range tpch.Relations {
		res, err := f.Check(ctx, tpch.DeleteElementUpdate(rel, 1))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  delete one <%s>: %s\n", tpch.ElementName(rel), res.Outcome)
	}

	// Vfail: region republished under the root poisons region deletes.
	fdb, err := tpch.NewDatabaseMB(mb)
	if err != nil {
		log.Fatal(err)
	}
	ffail, err := repro.NewFilter(tpch.VfailQuery("region"), fdb)
	if err != nil {
		log.Fatal(err)
	}
	res, err := ffail.Check(ctx, tpch.DeleteElementUpdate("region", 1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nVfail(region): delete one <region>: %s\n  %s\n", res.Outcome, res.Reason)

	start := time.Now()
	blind, err := ffail.BlindApply(tpch.DeleteElementUpdate("region", 1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  blind baseline: touched %d rows, side effect=%v, rolled back=%v in %v\n",
		blind.RowsTouched, blind.SideEffect, blind.RolledBack, time.Since(start))

	// Strategy comparison on the Fig. 15 insert.
	fmt.Println("\nInsert lineitem into Vlinear under each strategy:")
	for _, strat := range []repro.Strategy{repro.StrategyHybrid, repro.StrategyOutside, repro.StrategyInternal} {
		sdb, err := tpch.NewDatabaseMB(mb)
		if err != nil {
			log.Fatal(err)
		}
		sf, err := repro.NewFilter(tpch.VlinearQuery, sdb)
		if err != nil {
			log.Fatal(err)
		}
		sf.Strategy = strat
		start := time.Now()
		res, err := sf.Apply(ctx, tpch.InsertLineitemUpdate(10, 99))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s accepted=%v rows=%d probes=%d in %v\n",
			strat, res.Accepted, res.RowsAffected, len(res.Probes), time.Since(start))
		if len(res.Probes) > 0 {
			fmt.Printf("            first probe: %s\n", res.Probes[0])
		}
	}

	// A data conflict: inserting an existing (orderkey, linenumber).
	cdb, err := tpch.NewDatabaseMB(mb)
	if err != nil {
		log.Fatal(err)
	}
	cf, err := repro.NewFilter(tpch.VlinearQuery, cdb)
	if err != nil {
		log.Fatal(err)
	}
	res, err = cf.Apply(ctx, tpch.InsertLineitemUpdate(10, 1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDuplicate lineitem insert: accepted=%v\n  %s\n", res.Accepted, res.Reason)
}
