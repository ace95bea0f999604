// PSD curation: the Section 7.3 practicality scenario — a protein
// database whose curation view is NOT well-nested (organisms, the FK
// targets, are published inside the proteins that reference them) and
// whose foreign keys use the SET NULL delete policy. Well-nested-only
// approaches cannot handle this view; U-Filter classifies its updates
// per element.
package main

import (
	"context"
	"fmt"
	"log"

	repro "repro"
	"repro/internal/psd"
	"repro/internal/viewengine"
)

func main() {
	ctx := context.Background()
	db, err := psd.NewDatabase(8)
	if err != nil {
		log.Fatal(err)
	}
	engine := viewengine.New(db)
	view, err := engine.MaterializeQuery(psd.ViewQuery)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ProteinView materialized: %d proteins published\n\n", len(view.ChildrenNamed("protein")))

	f, err := repro.NewFilter(psd.ViewQuery, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("STAR marks for the non-well-nested view (SET NULL policy):")
	fmt.Println(f.Marks.MarkString())

	// Curators add and prune citations freely.
	res, err := f.Apply(ctx, psd.InsertCitation("P00001", "C7", "Crystal structure at 2.1 A"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("insert citation:        accepted=%v rows=%d\n", res.Accepted, res.RowsAffected)

	res, err = f.Apply(ctx, psd.DeleteCitations("P00002"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delete citations:       accepted=%v rows=%d\n", res.Accepted, res.RowsAffected)

	// Deleting a protein element is minimized: the shared organism
	// stays, matching the SET NULL curation policy.
	res, err = f.Apply(ctx, psd.DeleteProtein("P00003"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delete protein:         accepted=%v rows=%d organisms=%d (unchanged)\n",
		res.Accepted, res.RowsAffected, db.RowCount("organism"))

	// Deleting the organism nested inside a protein would make every
	// other protein of that organism change — untranslatable.
	res, err = f.Check(ctx, psd.DeleteOrganismInProtein("P00004"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delete nested organism: accepted=%v outcome=%s\n  %s\n",
		res.Accepted, res.Outcome, res.Reason)
}
