package xqparse

import (
	"repro/internal/xmltree"
	"strings"
	"testing"

	"repro/internal/bookdb"
	"repro/internal/relational"
)

// bookViewQuery is the paper's Fig. 3(a) view definition, verbatim
// modulo whitespace.
const bookViewQuery = `
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

func TestParseBookView(t *testing.T) {
	v, err := ParseViewQuery(bookViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	if v.RootTag != "BookView" {
		t.Errorf("root = %s", v.RootTag)
	}
	if len(v.Items) != 2 {
		t.Fatalf("top-level items = %d, want 2", len(v.Items))
	}
	f1, ok := v.Items[0].(*FLWR)
	if !ok {
		t.Fatalf("item 0 is %T, want *FLWR", v.Items[0])
	}
	if len(f1.Bindings) != 2 || f1.Bindings[0].Var != "book" || f1.Bindings[1].Var != "publisher" {
		t.Fatalf("bindings = %+v", f1.Bindings)
	}
	if got := f1.Bindings[0].Source.Table(); got != "book" {
		t.Errorf("binding table = %s", got)
	}
	if len(f1.Preds) != 3 {
		t.Fatalf("preds = %d, want 3", len(f1.Preds))
	}
	if !f1.Preds[0].IsCorrelation() {
		t.Error("pred 0 should be a correlation predicate")
	}
	if f1.Preds[1].IsCorrelation() || f1.Preds[2].IsCorrelation() {
		t.Error("preds 1,2 should be non-correlation")
	}
	if f1.Preds[1].Op != relational.OpLT || f1.Preds[1].Right.Lit.Float != 50.0 {
		t.Errorf("pred 1 = %+v", f1.Preds[1])
	}
	book, ok := f1.Return[0].(*Constructor)
	if !ok || book.Tag != "book" {
		t.Fatalf("return item = %#v", f1.Return[0])
	}
	// book constructor: 3 projections + publisher constructor + nested FLWR.
	if len(book.Items) != 5 {
		t.Fatalf("book items = %d, want 5", len(book.Items))
	}
	if proj, ok := book.Items[0].(*Projection); !ok || proj.Var != "book" || proj.Field != "bookid" {
		t.Errorf("item 0 = %#v", book.Items[0])
	}
	pub, ok := book.Items[3].(*Constructor)
	if !ok || pub.Tag != "publisher" {
		t.Errorf("item 3 = %#v", book.Items[3])
	}
	nested, ok := book.Items[4].(*FLWR)
	if !ok {
		t.Fatalf("item 4 = %#v", book.Items[4])
	}
	if len(nested.Bindings) != 1 || nested.Bindings[0].Source.Table() != "review" {
		t.Errorf("nested bindings = %+v", nested.Bindings)
	}
	rels := v.Relations()
	if len(rels) != 3 {
		t.Errorf("relations = %v", rels)
	}
}

func TestParseUpdateU1Insert(t *testing.T) {
	// The paper's u1 (well-formed variant).
	u, err := ParseUpdate(`
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
}`)
	if err != nil {
		t.Fatal(err)
	}
	if u.TargetVar != "root" {
		t.Errorf("target = %s", u.TargetVar)
	}
	if len(u.Ops) != 1 || u.Ops[0].Kind != OpInsert {
		t.Fatalf("ops = %+v", u.Ops)
	}
	frag := u.Ops[0].Content
	if frag.Name != "book" {
		t.Errorf("fragment root = %s", frag.Name)
	}
	if got := leafText(frag, "bookid"); got != "98004" {
		t.Errorf("bookid = %q (quotes should be stripped)", got)
	}
	if got := leafText(frag, "price"); got != "0.00" {
		t.Errorf("price = %q", got)
	}
	if len(frag.FindAll("publisher", "pubname")) == 0 {
		t.Error("nested publisher missing")
	}
}

func TestParseUpdateU2Delete(t *testing.T) {
	u, err := ParseUpdate(`
FOR $root IN document("BookView.xml"),
    $book IN $root/book
WHERE $book/bookid/text() = "98001"
UPDATE $root { DELETE $book/publisher }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Bindings) != 2 {
		t.Fatalf("bindings = %+v", u.Bindings)
	}
	if u.Bindings[1].Source.Var != "root" || u.Bindings[1].Source.Steps[0] != "book" {
		t.Errorf("binding 1 = %+v", u.Bindings[1])
	}
	if len(u.Preds) != 1 || u.Preds[0].Left.Var != "book" || u.Preds[0].Left.Field != "bookid" {
		t.Errorf("preds = %+v", u.Preds)
	}
	op := u.Ops[0]
	if op.Kind != OpDelete || op.PathVar != "book" || len(op.Path) != 1 || op.Path[0] != "publisher" {
		t.Errorf("op = %+v", op)
	}
}

func TestParseUpdateTextDelete(t *testing.T) {
	// The paper's u6: DELETE $book/bookid/text().
	u, err := ParseUpdate(`
FOR $book IN document("BookView.xml")/book
UPDATE $book { DELETE $book/bookid/text() }`)
	if err != nil {
		t.Fatal(err)
	}
	op := u.Ops[0]
	if !op.TextOnly || op.Path[0] != "bookid" {
		t.Errorf("op = %+v", op)
	}
	if u.Bindings[0].Source.Doc != "BookView.xml" || u.Bindings[0].Source.Steps[0] != "book" {
		t.Errorf("binding = %+v", u.Bindings[0])
	}
}

func TestParseUpdateLetBinding(t *testing.T) {
	// The paper's u9 uses "=" in the binding.
	u, err := ParseUpdate(`
FOR $root IN document("BookView.xml"),
    $book = $root/book
WHERE $book/price > 40.00
UPDATE $root { DELETE $book }`)
	if err != nil {
		t.Fatal(err)
	}
	if u.Bindings[1].Var != "book" || u.Bindings[1].Source.Var != "root" {
		t.Errorf("bindings = %+v", u.Bindings)
	}
	op := u.Ops[0]
	if op.Kind != OpDelete || op.PathVar != "book" || len(op.Path) != 0 {
		t.Errorf("op = %+v", op)
	}
}

func TestParseUpdateReplace(t *testing.T) {
	u, err := ParseUpdate(`
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98001"
UPDATE $book { REPLACE $book/title WITH <title>New Title</title> }`)
	if err != nil {
		t.Fatal(err)
	}
	op := u.Ops[0]
	if op.Kind != OpReplace || op.Content.TextContent() != "New Title" {
		t.Errorf("op = %+v", op)
	}
}

func TestParseUpdateMultipleOps(t *testing.T) {
	u, err := ParseUpdate(`
FOR $book IN document("BookView.xml")/book
UPDATE $book {
  DELETE $book/review,
  INSERT <review><reviewid>009</reviewid><comment>new</comment></review>
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Ops) != 2 || u.Ops[0].Kind != OpDelete || u.Ops[1].Kind != OpInsert {
		t.Fatalf("ops = %+v", u.Ops)
	}
}

func TestParseCurlyQuotes(t *testing.T) {
	// The paper's examples use curly quotes around document names.
	u, err := ParseUpdate(`
FOR $book IN document(` + "“BookView.xml”" + `)/book
WHERE $book/title/text() = “Data on the Web”
UPDATE $book { DELETE $book/review }`)
	if err != nil {
		t.Fatal(err)
	}
	if u.Bindings[0].Source.Doc != "BookView.xml" {
		t.Errorf("doc = %q", u.Bindings[0].Source.Doc)
	}
	if u.Preds[0].Right.Lit.Str != "Data on the Web" {
		t.Errorf("literal = %+v", u.Preds[0].Right)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct {
		name, input string
		isView      bool
	}{
		{"mismatched root", `<A>FOR $x IN document("d")/t/row RETURN { $x/c }</B>`, true},
		{"missing return", `<A>FOR $x IN document("d")/t/row { $x/c }</A>`, true},
		{"unterminated string", `<A>FOR $x IN document("d/t/row RETURN { $x/c }</A>`, true},
		{"trailing garbage", `<A>FOR $x IN document("d")/t/row RETURN { $x/c }</A> extra`, true},
		{"empty update block", `FOR $b IN document("v")/book UPDATE $b { }`, false},
		{"bad op keyword", `FOR $b IN document("v")/book UPDATE $b { REMOVE $b/x }`, false},
		{"unbalanced fragment", `FOR $b IN document("v")/book UPDATE $b { INSERT <a><b></a> }`, false},
		{"missing with", `FOR $b IN document("v")/book UPDATE $b { REPLACE $b/t <title>x</title> }`, false},
	}
	for _, c := range bad {
		var err error
		if c.isView {
			_, err = ParseViewQuery(c.input)
		} else {
			_, err = ParseUpdate(c.input)
		}
		if err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := ParseViewQuery("<A>\nFOR $x IN docuXment(\"d\")/t/row RETURN { $x/c }</A>")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should carry position info, got %v", err)
	}
}

func TestUpdateQueryString(t *testing.T) {
	u, err := ParseUpdate(`
FOR $book IN document("BookView.xml")/book
WHERE $book/price > 40.00
UPDATE $book { DELETE $book/publisher }`)
	if err != nil {
		t.Fatal(err)
	}
	s := u.String()
	for _, want := range []string{"FOR $book", "WHERE", "$book/price > 40", "DELETE $book/publisher"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestSelfClosingFragment(t *testing.T) {
	u, err := ParseUpdate(`
FOR $b IN document("v")/book
UPDATE $b { INSERT <title/> }`)
	if err != nil {
		t.Fatal(err)
	}
	if u.Ops[0].Content.Name != "title" || len(u.Ops[0].Content.Children) != 0 {
		t.Errorf("fragment = %+v", u.Ops[0].Content)
	}
}

// TestParseUpdateAllocs bounds the allocations of parsing the paper's
// u12. The lexer keeps its one-token lookahead by value: a heap copy of
// every peeked token made the same parse cost 16 allocations.
func TestParseUpdateAllocs(t *testing.T) {
	parse := func() {
		if _, err := ParseUpdate(bookdb.U12); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, parse); n > 6 {
		t.Errorf("ParseUpdate(u12) allocates %.0f times, want <= 6", n)
	}
}

// leafText is the text of the first element the path reaches from n, ""
// when it reaches none.
func leafText(n *xmltree.Node, path ...string) string {
	if m := n.FindAll(path...); len(m) > 0 {
		return m[0].TextContent()
	}
	return ""
}

// Relations lists the distinct relation names referenced by the view's
// FOR bindings — the paper's rel(DEF_V).
func (v *ViewQuery) Relations() []string {
	seen := map[string]bool{}
	var out []string
	var walkItems func(items []BodyItem)
	walkItems = func(items []BodyItem) {
		for _, it := range items {
			switch n := it.(type) {
			case *FLWR:
				for _, b := range n.Bindings {
					t := strings.ToLower(b.Source.Table())
					if t != "" && !seen[t] {
						seen[t] = true
						out = append(out, b.Source.Table())
					}
				}
				walkItems(n.Return)
			case *Constructor:
				walkItems(n.Items)
			}
		}
	}
	walkItems(v.Items)
	return out
}
