package repro_test

import (
	"context"
	"fmt"
	"log"

	repro "repro"
	"repro/internal/bookdb"
	"repro/internal/relational"
)

// ExampleNewFilter compiles the U-Filter for the paper's running
// example (the BookView of Fig. 3 over the Fig. 1 database) and prints
// the STAR marks — the (UPoint|UContext) pairs of Fig. 8 that all
// schema-level verdicts derive from.
func ExampleNewFilter() {
	db, err := bookdb.NewDatabase(relational.DeleteCascade)
	if err != nil {
		log.Fatal(err)
	}
	f, err := repro.NewFilter(bookdb.ViewQuery, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(f.Marks.MarkString())
	// Output:
	// vC1 <book>: (dirty | s-d^u-i) anchor=book
	// vC2 <publisher>: (dirty | u-d^u-i)
	// vC3 <review>: (clean | s-d^s-i) anchor=review
	// vC4 <publisher>: (dirty | u-d^s-i)
}

// ExampleFilter_Check runs the schema-level steps (1: validation,
// 2: STAR reasoning) on two of the paper's updates: u9 (delete books
// over $40) is conditionally translatable, u2 (delete a book's
// publisher) is statically untranslatable — no base data was read for
// either verdict.
func ExampleFilter_Check() {
	db, err := bookdb.NewDatabase(relational.DeleteCascade)
	if err != nil {
		log.Fatal(err)
	}
	f, err := repro.NewFilter(bookdb.ViewQuery, db)
	if err != nil {
		log.Fatal(err)
	}

	res, err := f.Check(context.Background(), bookdb.U9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("u9: accepted=%v outcome=%s\n", res.Accepted, res.Outcome)
	for _, c := range res.Conditions {
		fmt.Printf("u9: condition: %s\n", c)
	}

	res, err = f.Check(context.Background(), bookdb.U2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("u2: accepted=%v outcome=%s\n", res.Accepted, res.Outcome)
	// Output:
	// u9: accepted=true outcome=conditionally translatable
	// u9: condition: translation minimization
	// u2: accepted=false outcome=untranslatable
}

// ExampleFilter_Apply pushes u13 (insert a review into "Data on the
// Web") through the full pipeline: Steps 1+2, then Step 3's probe
// against the base data, and finally the translated single-table SQL.
func ExampleFilter_Apply() {
	db, err := bookdb.NewDatabase(relational.DeleteCascade)
	if err != nil {
		log.Fatal(err)
	}
	f, err := repro.NewFilter(bookdb.ViewQuery, db)
	if err != nil {
		log.Fatal(err)
	}
	res, err := f.Apply(context.Background(), bookdb.U13)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accepted=%v rows=%d\n", res.Accepted, res.RowsAffected)
	for _, s := range res.SQL {
		fmt.Println("sql:", s)
	}
	// Output:
	// accepted=true rows=1
	// sql: INSERT INTO review (bookid, comment, reviewid) VALUES ('98003', 'Easy read and useful.', '001')
}

// ExampleFilter_CheckBatch checks a slice of updates through the worker
// pool; repeated templates are served from the decision cache, which
// the stats report. One worker keeps this example's counters exact —
// production callers pass 0 for GOMAXPROCS.
func ExampleFilter_CheckBatch() {
	db, err := bookdb.NewDatabase(relational.DeleteCascade)
	if err != nil {
		log.Fatal(err)
	}
	f, err := repro.NewFilter(bookdb.ViewQuery, db)
	if err != nil {
		log.Fatal(err)
	}
	results := f.CheckBatch([]string{bookdb.U9, bookdb.U9, bookdb.U9}, 1)
	for _, br := range results {
		fmt.Printf("[%d] accepted=%v\n", br.Index, br.Result.Accepted)
	}
	st := f.CacheStats()
	fmt.Printf("cache: hits=%d misses=%d\n", st.Hits, st.Misses)
	// Output:
	// [0] accepted=true
	// [1] accepted=true
	// [2] accepted=true
	// cache: hits=2 misses=1
}
