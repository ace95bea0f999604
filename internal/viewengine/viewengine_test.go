package viewengine

import (
	"strings"
	"testing"

	"repro/internal/bookdb"
	"repro/internal/relational"
	"repro/internal/xmltree"
	"repro/internal/xqparse"
)

func newEngine(t testing.TB) *Engine {
	t.Helper()
	db, err := bookdb.NewDatabase(relational.DeleteCascade)
	if err != nil {
		t.Fatal(err)
	}
	return New(db)
}

func TestDefaultView(t *testing.T) {
	e := newEngine(t)
	dv := e.DefaultView()
	if dv.Name != "DB" {
		t.Fatalf("root = %s", dv.Name)
	}
	rows := dv.FindAll("book", "row")
	if len(rows) != 3 {
		t.Fatalf("book rows = %d, want 3", len(rows))
	}
	if got := leafText(rows[0], "title"); got != "TCP/IP Illustrated" {
		t.Errorf("first book title = %q", got)
	}
	if got := len(dv.FindAll("review", "row")); got != 2 {
		t.Errorf("review rows = %d", got)
	}
}

// TestMaterializeBookView checks the materialized view against the
// paper's Fig. 3(b) content.
func TestMaterializeBookView(t *testing.T) {
	e := newEngine(t)
	view, err := e.MaterializeQuery(bookdb.ViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	if view.Name != "BookView" {
		t.Fatalf("root = %s", view.Name)
	}
	books := view.ChildrenNamed("book")
	if len(books) != 2 {
		t.Fatalf("books = %d, want 2 (98001, 98003; 98002 fails year>1990)", len(books))
	}
	b1 := books[0]
	if got := leafText(b1, "bookid"); got != "98001" {
		t.Errorf("book 1 id = %q", got)
	}
	if got := leafText(b1, "price"); got != "37" {
		t.Errorf("book 1 price = %q", got)
	}
	if got := leafText(b1, "publisher", "pubname"); got != "McGraw-Hill Inc." {
		t.Errorf("book 1 publisher = %v", got)
	}
	reviews := b1.ChildrenNamed("review")
	if len(reviews) != 2 {
		t.Fatalf("book 1 reviews = %d, want 2", len(reviews))
	}
	if got := leafText(reviews[0], "reviewid"); got != "001" {
		t.Errorf("review 1 = %q", got)
	}
	b2 := books[1]
	if got := leafText(b2, "bookid"); got != "98003" {
		t.Errorf("book 2 id = %q", got)
	}
	if got := len(b2.ChildrenNamed("review")); got != 0 {
		t.Errorf("book 2 reviews = %d, want 0", got)
	}
	// The second FLWR republishes all three publishers under the root.
	pubs := view.ChildrenNamed("publisher")
	if len(pubs) != 3 {
		t.Fatalf("root publishers = %d, want 3", len(pubs))
	}
}

func TestMaterializeCorrelatedPredicates(t *testing.T) {
	// The nested review FLWR must only see reviews of the outer book.
	e := newEngine(t)
	view, err := e.MaterializeQuery(bookdb.ViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range view.ChildrenNamed("book") {
		id := leafText(b, "bookid")
		for range b.ChildrenNamed("review") {
			if id != "98001" {
				t.Errorf("book %s should have no reviews", id)
			}
		}
	}
}

func TestMaterializeEmptyWhere(t *testing.T) {
	e := newEngine(t)
	view, err := e.MaterializeQuery(`
<All>
FOR $p IN document("default.xml")/publisher/row
RETURN { <pub> $p/pubid </pub> }
</All>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(view.ChildrenNamed("pub")); got != 3 {
		t.Errorf("pubs = %d", got)
	}
}

func TestMaterializeNullProjection(t *testing.T) {
	e := newEngine(t)
	// Insert a book with a NULL price via a NULL-allowed path: price is
	// nullable in the schema (only CHECK'd when present).
	txn := e.Exec.DB.BeginTxn()
	if _, err := txn.Insert("book", map[string]relational.Value{
		"bookid": relational.String_("99999"), "title": relational.String_("No Price"),
		"pubid": relational.String_("A01"), "year": relational.Int_(2000),
	}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	view, err := e.MaterializeQuery(`
<V>
FOR $b IN document("default.xml")/book/row
WHERE $b/bookid = "99999"
RETURN { <book> $b/bookid, $b/price </book> }
</V>`)
	if err != nil {
		t.Fatal(err)
	}
	prices := view.FindAll("book", "price")
	if len(prices) != 1 || prices[0].TextContent() != "" {
		t.Errorf("NULL price should render as one empty element, got %v", prices)
	}
}

func TestMaterializeErrors(t *testing.T) {
	e := newEngine(t)
	cases := []string{
		// Unknown table.
		`<V>FOR $x IN document("default.xml")/nosuch/row RETURN { $x/a }</V>`,
		// Unknown column.
		`<V>FOR $b IN document("default.xml")/book/row RETURN { $b/nosuchcol }</V>`,
		// Unbound variable in predicate.
		`<V>FOR $b IN document("default.xml")/book/row WHERE $ghost/x = 1 RETURN { $b/bookid }</V>`,
		// Non-default-view source.
		`<V>FOR $b IN document("other.xml")/deep/path/row/extra RETURN { $b/bookid }</V>`,
	}
	for i, q := range cases {
		if _, err := e.MaterializeQuery(q); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMaterializeTextLiteral(t *testing.T) {
	e := newEngine(t)
	view, err := e.MaterializeQuery(`
<V>
FOR $p IN document("default.xml")/publisher/row
WHERE $p/pubid = "A01"
RETURN { <entry> "label", $p/pubid </entry> }
</V>`)
	if err != nil {
		t.Fatal(err)
	}
	s := view.String()
	if !strings.Contains(s, "label") {
		t.Errorf("text literal missing: %s", s)
	}
}

func TestViewDeterminism(t *testing.T) {
	e := newEngine(t)
	v, err := xqparse.ParseViewQuery(bookdb.ViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Materialize(v)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Materialize(v)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("materialization is not deterministic")
	}
}

// DefaultView produces the one-to-one relational-to-XML mapping of
// Fig. 2: <DB> wrapping one element per table, one <row> per tuple, one
// element per column. NULL columns are omitted.
func (e *Engine) DefaultView() *xmltree.Node {
	root := xmltree.Elem("DB")
	for _, def := range e.Exec.DB.Schema().Tables() {
		tElem := xmltree.Elem(def.Name)
		e.reader().Scan(def.Name, func(r *relational.Row) bool {
			row := xmltree.Elem("row")
			for i, c := range def.Columns {
				if r.Values[i].IsNull() {
					continue
				}
				row.Append(xmltree.Elem(c.Name, xmltree.Text(r.Values[i].String())))
			}
			tElem.Append(row)
			return true
		})
		root.Append(tElem)
	}
	return root
}

// leafText is the text of the first element the path reaches from n, ""
// when it reaches none.
func leafText(n *xmltree.Node, path ...string) string {
	if m := n.FindAll(path...); len(m) > 0 {
		return m[0].TextContent()
	}
	return ""
}
