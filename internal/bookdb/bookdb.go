// Package bookdb provides the paper's running example as a reusable
// fixture: the book/publisher/review relational schema of Fig. 1, its
// sample data, the BookView definition of Fig. 3(a), and the thirteen
// view updates u1–u13 of Figs. 4 and 10.
package bookdb

import (
	"fmt"

	"repro/internal/relational"
)

// Schema builds the Fig. 1 schema. The delete policy of the two foreign
// keys is configurable; the paper's default analysis assumes CASCADE.
func Schema(policy relational.DeletePolicy) (*relational.Schema, error) {
	publisher, err := relational.NewTableDef("publisher", []relational.Column{
		{Name: "pubid", Type: relational.TypeString},
		{Name: "pubname", Type: relational.TypeString, NotNull: true, Unique: true},
	}, []string{"pubid"}, nil)
	if err != nil {
		return nil, err
	}
	book, err := relational.NewTableDef("book", []relational.Column{
		{Name: "bookid", Type: relational.TypeString},
		{Name: "title", Type: relational.TypeString, NotNull: true},
		{Name: "pubid", Type: relational.TypeString},
		{Name: "price", Type: relational.TypeFloat,
			Checks: []relational.CheckPredicate{{Op: relational.OpGT, Operand: relational.Float_(0.00)}}},
		{Name: "year", Type: relational.TypeInt},
	}, []string{"bookid"}, []relational.ForeignKey{{
		Name: "book_pub_fk", Columns: []string{"pubid"},
		RefTable: "publisher", RefColumns: []string{"pubid"}, OnDelete: policy,
	}})
	if err != nil {
		return nil, err
	}
	review, err := relational.NewTableDef("review", []relational.Column{
		{Name: "bookid", Type: relational.TypeString},
		{Name: "reviewid", Type: relational.TypeString},
		{Name: "comment", Type: relational.TypeString},
		{Name: "reviewer", Type: relational.TypeString},
	}, []string{"bookid", "reviewid"}, []relational.ForeignKey{{
		Name: "review_book_fk", Columns: []string{"bookid"},
		RefTable: "book", RefColumns: []string{"bookid"}, OnDelete: policy,
	}})
	if err != nil {
		return nil, err
	}
	return relational.NewSchema(publisher, book, review)
}

// NewDatabase builds the schema and loads the Fig. 1 sample rows.
func NewDatabase(policy relational.DeletePolicy) (*relational.Database, error) {
	schema, err := Schema(policy)
	if err != nil {
		return nil, err
	}
	db := relational.NewDatabase(schema)
	_, err = db.Load(Populate)
	return db, err
}

// Populate emits the Fig. 1 sample rows into the sink, parents first,
// each in declared column order.
func Populate(sink relational.Inserter) error {
	str := relational.String_
	var buf [5]relational.Value // the widest relation's columns
	for _, p := range [][2]string{
		{"A01", "McGraw-Hill Inc."},
		{"B01", "Prentice-Hall Inc."},
		{"A02", "Simon & Schuster Inc."},
	} {
		// pubid, pubname
		if _, err := sink.InsertRow("publisher", append(buf[:0], str(p[0]), str(p[1]))); err != nil {
			return fmt.Errorf("bookdb: load publisher: %w", err)
		}
	}
	books := []struct {
		id, title, pub string
		price          float64
		year           int64
	}{
		{"98001", "TCP/IP Illustrated", "A01", 37.00, 1997},
		{"98002", "Programming in Unix", "A02", 45.00, 1985},
		{"98003", "Data on the Web", "A01", 48.00, 2004},
	}
	for _, b := range books {
		// bookid, title, pubid, price, year
		row := append(buf[:0], str(b.id), str(b.title), str(b.pub), relational.Float_(b.price), relational.Int_(b.year))
		if _, err := sink.InsertRow("book", row); err != nil {
			return fmt.Errorf("bookdb: load book: %w", err)
		}
	}
	for _, r := range [][4]string{
		{"98001", "001", "A good book on network.", "William"},
		{"98001", "002", "Useful for advanced user.", "John"},
	} {
		// bookid, reviewid, comment, reviewer
		if _, err := sink.InsertRow("review", append(buf[:0], str(r[0]), str(r[1]), str(r[2]), str(r[3]))); err != nil {
			return fmt.Errorf("bookdb: load review: %w", err)
		}
	}
	return nil
}

// ViewQuery is the BookView definition of Fig. 3(a).
const ViewQuery = `
<BookView>
FOR $book IN document("default.xml")/book/row,
    $publisher IN document("default.xml")/publisher/row
WHERE ($book/pubid = $publisher/pubid)
  AND ($book/price < 50.00) AND ($book/year > 1990)
RETURN {
  <book>
    $book/bookid, $book/title, $book/price,
    <publisher>
      $publisher/pubid, $publisher/pubname
    </publisher>,
    FOR $review IN document("default.xml")/review/row
    WHERE ($book/bookid = $review/bookid)
    RETURN {
      <review>
        $review/reviewid, $review/comment
      </review>
    }
  </book>
},
FOR $publisher IN document("default.xml")/publisher/row
RETURN {
  <publisher>
    $publisher/pubid, $publisher/pubname
  </publisher>
}
</BookView>`

// The paper's updates. U1–U4 are Fig. 4; U5–U13 are Fig. 10, with the
// paper's typos normalized to well-formed syntax.
const (
	// U1 inserts a book with an empty title and price 0.00 — invalid
	// (NOT NULL and CHECK conflicts; Example 1).
	U1 = `
FOR $root IN document("BookView.xml")
UPDATE $root {
  INSERT
    <book>
      <bookid>"98004"</bookid>
      <title> </title>
      <price> 0.00 </price>
      <publisher>
        <pubid>A01</pubid>
        <pubname>McGraw-Hill Inc.</pubname>
      </publisher>
    </book>
}`

	// U2 deletes the publisher of book 98001 — untranslatable (view
	// side effect: the book would vanish; Example 2).
	U2 = `
FOR $root IN document("BookView.xml"),
    $book IN $root/book
WHERE $book/bookid/text() = "98001"
UPDATE $root { DELETE $book/publisher }`

	// U3 inserts a review into a book absent from the view —
	// untranslatable at the data level (Example 3).
	U3 = `
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "DB2 Universal Database"
UPDATE $book {
  INSERT
    <review>
      <reviewid>001</reviewid>
      <comment> Easy read and useful. </comment>
    </review>
}`

	// U4 inserts a book whose key already exists — data conflict at the
	// update point (Example 3).
	U4 = `
FOR $root IN document("BookView.xml")
UPDATE $root {
  INSERT
    <book>
      <bookid>"98001"</bookid>
      <title>"Operating Systems"</title>
      <price> 20.00 </price>
      <publisher>
        <pubid>A01</pubid>
        <pubname>McGraw-Hill Inc.</pubname>
      </publisher>
    </book>
}`

	// U5 deletes reviews of books costing more than $50 — invalid: the
	// view only contains books under $50 (Section 4, delete check (i)).
	U5 = `
FOR $book IN document("BookView.xml")/book
WHERE $book/price/text() > 50.00
UPDATE $book { DELETE $book/review }`

	// U6 deletes a bookid text node — invalid: the leaf is NOT NULL and
	// its incoming edge has cardinality 1 (Section 4, delete check (ii)).
	U6 = `
FOR $book IN document("BookView.xml")/book
UPDATE $book { DELETE $book/bookid/text() }`

	// U7 inserts a book without a publisher — invalid: edge (book,
	// publisher) has cardinality 1 (Section 4, insert check).
	U7 = `
FOR $root IN document("BookView.xml")
UPDATE $root {
  INSERT
    <book>
      <bookid>"98004"</bookid>
      <title>"Operating Systems"</title>
      <price> 20.00 </price>
    </book>
}`

	// U8 deletes reviews of books under $40 — unconditionally
	// translatable (review is a clean | safe-delete node).
	U8 = `
FOR $book IN document("BookView.xml")/book
WHERE $book/price < 40.00
UPDATE $book { DELETE $book/review }`

	// U9 deletes books over $40 — conditionally translatable (dirty |
	// safe-delete; condition: translation minimization).
	U9 = `
FOR $root IN document("BookView.xml"),
    $book = $root/book
WHERE $book/price > 40.00
UPDATE $root { DELETE $book }`

	// U10 deletes the publisher inside books over $40 — untranslatable
	// (publisher inside book is unsafe-delete).
	U10 = `
FOR $book IN document("BookView.xml")/book
WHERE $book/price > 40.00
UPDATE $book { DELETE $book/publisher }`

	// U11 deletes reviews of "Programming in Unix", which is not in the
	// view — rejected by the data-driven context check.
	U11 = `
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Programming in Unix"
UPDATE $book { DELETE $book/review }`

	// U12 deletes reviews of "Data on the Web" — in the view, but it
	// has no reviews: the hybrid strategy reports "zero tuples deleted".
	U12 = `
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book { DELETE $book/review }`

	// U13 inserts a review into "Data on the Web" — translatable; the
	// probe result supplies the bookid for the translated INSERT.
	U13 = `
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book {
  INSERT
    <review>
      <reviewid>001</reviewid>
      <comment> Easy read and useful. </comment>
    </review>
}`
)

// AllUpdates maps update names to their source text, in paper order.
func AllUpdates() []struct{ Name, Text string } {
	return []struct{ Name, Text string }{
		{"u1", U1}, {"u2", U2}, {"u3", U3}, {"u4", U4}, {"u5", U5},
		{"u6", U6}, {"u7", U7}, {"u8", U8}, {"u9", U9}, {"u10", U10},
		{"u11", U11}, {"u12", U12}, {"u13", U13},
	}
}
