// Quickstart: build the paper's running-example book database, compile
// the BookView filter, and push one update through each path of the
// U-Filter pipeline.
package main

import (
	"context"
	"fmt"
	"log"

	repro "repro"
	"repro/internal/bookdb"
	"repro/internal/relational"
	"repro/internal/viewengine"
)

func main() {
	ctx := context.Background()
	// The Fig. 1 relational database: publisher / book / review with
	// keys, NOT NULL, CHECK and foreign-key constraints.
	db, err := bookdb.NewDatabase(relational.DeleteCascade)
	if err != nil {
		log.Fatal(err)
	}

	// Materialize the Fig. 3(b) view so we can look at it.
	engine := viewengine.New(db)
	view, err := engine.MaterializeQuery(bookdb.ViewQuery)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("BookView (materialized):")
	fmt.Println(view)

	// Compile the U-Filter: parse the view query, build the annotated
	// schema graphs, run the STAR marking once.
	f, err := repro.NewFilter(bookdb.ViewQuery, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("STAR marks (Fig. 8's (UPoint|UContext) pairs):")
	fmt.Println(f.Marks.MarkString())

	// Step 1 rejection: u1 inserts an empty title and price 0.00.
	res, err := f.Check(ctx, bookdb.U1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("u1: accepted=%v step=%d outcome=%s\n    %s\n\n",
		res.Accepted, res.RejectedAt, res.Outcome, res.Reason)

	// Step 2 rejection: u2 deletes the publisher inside a book.
	res, err = f.Check(ctx, bookdb.U2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("u2: accepted=%v step=%d outcome=%s\n    %s\n\n",
		res.Accepted, res.RejectedAt, res.Outcome, res.Reason)

	// Full pipeline: u13 inserts a review into "Data on the Web"; the
	// probe query's bookid feeds the translated INSERT.
	res, err = f.Apply(ctx, bookdb.U13)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("u13: accepted=%v rows=%d\n", res.Accepted, res.RowsAffected)
	for _, p := range res.Probes {
		fmt.Println("  probe:", p)
	}
	for _, s := range res.SQL {
		fmt.Println("  sql:  ", s)
	}
}
