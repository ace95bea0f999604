package asg

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bookdb"
	"repro/internal/relational"
	"repro/internal/xqparse"
)

func buildBookASG(t testing.TB) (*ViewASG, *BaseASG) {
	t.Helper()
	schema, err := bookdb.Schema(relational.DeleteCascade)
	if err != nil {
		t.Fatal(err)
	}
	q, err := xqparse.ParseViewQuery(bookdb.ViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildViewASG(q, schema)
	if err != nil {
		t.Fatal(err)
	}
	return g, BuildBaseASG(g, schema)
}

// TestViewASGStructure verifies the node inventory of the paper's Fig. 8.
func TestViewASGStructure(t *testing.T) {
	g, _ := buildBookASG(t)
	if g.Root.Name != "BookView" || g.Root.Kind != KindRoot {
		t.Fatalf("root = %+v", g.Root)
	}
	internals := g.InternalNodes()
	if len(internals) != 4 {
		t.Fatalf("internal nodes = %d, want 4 (book, publisher, review, publisher)", len(internals))
	}
	names := []string{internals[0].Name, internals[1].Name, internals[2].Name, internals[3].Name}
	want := []string{"book", "publisher", "review", "publisher"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("vC%d = %s, want %s", i+1, names[i], want[i])
		}
	}
	if got := len(g.Leaves()); got != 9 {
		t.Errorf("leaves = %d, want 9", got)
	}
	// Fig. 8 tag count: bookid,title,price,pubid,pubname,reviewid,comment,pubid,pubname.
	tags := 0
	for _, n := range g.Nodes {
		if n.Kind == KindTag {
			tags++
		}
	}
	if tags != 9 {
		t.Errorf("tag nodes = %d, want 9", tags)
	}
}

// TestBindings verifies the UCBinding/UPBinding values of Fig. 8's
// node annotation table.
func TestBindings(t *testing.T) {
	g, _ := buildBookASG(t)
	in := g.InternalNodes()
	vC1, vC2, vC3, vC4 := in[0], in[1], in[2], in[3]

	check := func(name string, got RelSet, want ...string) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s = %s, want %v", name, got, want)
			return
		}
		for _, w := range want {
			if !got.Has(w) {
				t.Errorf("%s = %s, missing %s", name, got, w)
			}
		}
	}
	check("UCBinding(vR)", g.Root.UCBinding)
	check("UPBinding(vR)", g.Root.UPBinding, "book", "publisher", "review")
	check("UCBinding(vC1)", vC1.UCBinding, "book", "publisher")
	check("UPBinding(vC1)", vC1.UPBinding, "book", "publisher", "review")
	check("UCBinding(vC2)", vC2.UCBinding, "book", "publisher")
	check("UPBinding(vC2)", vC2.UPBinding, "publisher")
	check("UCBinding(vC3)", vC3.UCBinding, "book", "publisher", "review")
	check("UPBinding(vC3)", vC3.UPBinding, "review")
	check("UCBinding(vC4)", vC4.UCBinding, "publisher")
	check("UPBinding(vC4)", vC4.UPBinding, "publisher")

	// CR values used by the STAR rules.
	check("CR(vC1)", vC1.CR(), "book", "publisher")
	check("CR(vC2)", vC2.CR())
	check("CR(vC3)", vC3.CR(), "review")
	check("CR(vC4)", vC4.CR(), "publisher")
}

// TestEdges verifies Fig. 8's edge annotation table.
func TestEdges(t *testing.T) {
	g, _ := buildBookASG(t)
	in := g.InternalNodes()
	vC1, vC2, vC3, vC4 := in[0], in[1], in[2], in[3]

	if vC1.EdgeCard != CardStar {
		t.Errorf("(vR,vC1) card = %s, want *", vC1.EdgeCard)
	}
	if len(vC1.EdgeConds) != 1 || vC1.EdgeConds[0].String() != "book.pubid = publisher.pubid" {
		t.Errorf("(vR,vC1) conds = %v", vC1.EdgeConds)
	}
	if vC2.EdgeCard != CardOne {
		t.Errorf("(vC1,vC2) card = %s, want 1", vC2.EdgeCard)
	}
	if vC3.EdgeCard != CardStar {
		t.Errorf("(vC1,vC3) card = %s, want *", vC3.EdgeCard)
	}
	if len(vC3.EdgeConds) != 1 || vC3.EdgeConds[0].String() != "book.bookid = review.bookid" {
		t.Errorf("(vC1,vC3) conds = %v", vC3.EdgeConds)
	}
	if vC4.EdgeCard != CardStar || len(vC4.EdgeConds) != 0 {
		t.Errorf("(vR,vC4) = %s %v, want * with no condition", vC4.EdgeCard, vC4.EdgeConds)
	}
}

// TestLeafAnnotations verifies Fig. 8's leaf node annotation table.
func TestLeafAnnotations(t *testing.T) {
	g, _ := buildBookASG(t)
	leaves := g.Leaves()
	// vL1 = book.bookid: Not Null (key).
	if leaves[0].RelAttr() != "book.bookid" || !leaves[0].NotNull {
		t.Errorf("vL1 = %s notnull=%v", leaves[0].RelAttr(), leaves[0].NotNull)
	}
	if leaves[0].EdgeCard != CardOne {
		t.Errorf("vL1 edge = %s, want 1", leaves[0].EdgeCard)
	}
	// vL2 = book.title: Not Null.
	if leaves[1].RelAttr() != "book.title" || !leaves[1].NotNull {
		t.Errorf("vL2 = %s notnull=%v", leaves[1].RelAttr(), leaves[1].NotNull)
	}
	// vL3 = book.price: check = {0 < value < 50} (schema CHECK + view predicate).
	vL3 := leaves[2]
	if vL3.RelAttr() != "book.price" || vL3.NotNull {
		t.Errorf("vL3 = %s notnull=%v", vL3.RelAttr(), vL3.NotNull)
	}
	if vL3.EdgeCard != CardOpt {
		t.Errorf("vL3 edge = %s, want ?", vL3.EdgeCard)
	}
	if len(vL3.Checks) != 2 {
		t.Fatalf("vL3 checks = %v, want 2 (schema >0 and view <50)", vL3.Checks)
	}
	if !vL3.Checks[0].Holds(relational.Float_(10)) || vL3.Checks[0].Holds(relational.Float_(0)) {
		t.Errorf("vL3 schema check wrong: %v", vL3.Checks[0])
	}
	if !vL3.Checks[1].Holds(relational.Float_(10)) || vL3.Checks[1].Holds(relational.Float_(50)) {
		t.Errorf("vL3 view check wrong: %v", vL3.Checks[1])
	}
	// vL4 = publisher.pubid: Not Null (key of publisher).
	if leaves[3].RelAttr() != "publisher.pubid" || !leaves[3].NotNull {
		t.Errorf("vL4 = %s notnull=%v", leaves[3].RelAttr(), leaves[3].NotNull)
	}
	// vL5 = publisher.pubname: Not Null (declared).
	if leaves[4].RelAttr() != "publisher.pubname" || !leaves[4].NotNull {
		t.Errorf("vL5 = %s notnull=%v", leaves[4].RelAttr(), leaves[4].NotNull)
	}
}

// TestBaseASG verifies Fig. 9: three relation nodes, FK edges
// publisher->book->review, key properties.
func TestBaseASG(t *testing.T) {
	_, b := buildBookASG(t)
	if len(b.Rels) != 3 {
		t.Fatalf("base relations = %d, want 3", len(b.Rels))
	}
	pub := b.Rels["publisher"]
	if pub == nil || len(pub.Leaves) != 2 {
		t.Fatalf("publisher = %+v", pub)
	}
	if len(pub.Referencing) != 1 || pub.Referencing[0].Child != "book" {
		t.Errorf("publisher referencing = %+v", pub.Referencing)
	}
	if got := pub.Referencing[0].Cond.String(); got != "book.pubid = publisher.pubid" {
		t.Errorf("edge cond = %s", got)
	}
	book := b.Rels["book"]
	if len(book.Referencing) != 1 || book.Referencing[0].Child != "review" {
		t.Errorf("book referencing = %+v", book.Referencing)
	}
	review := b.Rels["review"]
	if len(review.Referencing) != 0 {
		t.Errorf("review referencing = %+v", review.Referencing)
	}
	// Keys: publisher.pubid (+pubname unique), book.bookid, review composite.
	if len(pub.Keys) != 2 {
		t.Errorf("publisher keys = %v", pub.Keys)
	}
	if len(book.Keys) != 1 || book.Keys[0] != "book.bookid" {
		t.Errorf("book keys = %v", book.Keys)
	}
}

// TestViewClosures verifies the Section 5.1.2 closure examples.
func TestViewClosures(t *testing.T) {
	g, _ := buildBookASG(t)
	in := g.InternalNodes()
	vC1, vC2, vC3 := in[0], in[1], in[2]

	c2 := ViewClosure(vC2)
	if want := NewClosure("publisher.pubid", "publisher.pubname"); !c2.Equal(want) {
		t.Errorf("v+C2 = %s", c2)
	}
	c3 := ViewClosure(vC3)
	if want := NewClosure("review.reviewid", "review.comment"); !c3.Equal(want) {
		t.Errorf("v+C3 = %s", c3)
	}
	// v+C1 = {book.bookid, book.title, book.price, publisher.pubid,
	//         publisher.pubname, (review.reviewid, review.comment)*}.
	c1 := ViewClosure(vC1)
	want := NewClosure("book.bookid", "book.title", "book.price", "publisher.pubid", "publisher.pubname").
		AddGroup("con2", NewClosure("review.reviewid", "review.comment"))
	if !c1.Equal(want) {
		t.Errorf("v+C1 = %s, want %s", c1, want)
	}
}

// TestBaseClosures verifies the Section 5.1.2 base closure examples:
// n1+ (publisher) nests book which nests review under cascade policy.
func TestBaseClosures(t *testing.T) {
	_, b := buildBookASG(t)
	reviewC := b.RelationClosure("review")
	if want := NewClosure("review.reviewid", "review.comment"); !reviewC.Equal(want) {
		t.Errorf("review+ = %s", reviewC)
	}
	bookC := b.RelationClosure("book")
	wantBook := NewClosure("book.bookid", "book.title", "book.price").
		AddGroup("c", NewClosure("review.reviewid", "review.comment"))
	if !bookC.Equal(wantBook) {
		t.Errorf("book+ = %s, want %s", bookC, wantBook)
	}
	pubC := b.RelationClosure("publisher")
	wantPub := NewClosure("publisher.pubid", "publisher.pubname").AddGroup("c", wantBook)
	if !pubC.Equal(wantPub) {
		t.Errorf("publisher+ = %s, want %s", pubC, wantPub)
	}
	// Containment: review+ ⊆ book+ ⊆ publisher+.
	if !reviewC.AppearsIn(bookC) || !bookC.AppearsIn(pubC) || !reviewC.AppearsIn(pubC) {
		t.Error("closure containment chain broken")
	}
	if pubC.AppearsIn(reviewC) {
		t.Error("publisher+ should not appear in review+")
	}
}

// TestMappingClosures verifies Definition 2's clean/dirty examples.
func TestMappingClosures(t *testing.T) {
	g, b := buildBookASG(t)
	in := g.InternalNodes()
	vC1, vC2, vC3, vC4 := in[0], in[1], in[2], in[3]

	cases := []struct {
		name string
		node *Node
		want bool // clean?
	}{
		{"vC1 book", vC1, false},
		{"vC2 publisher-in-book", vC2, false},
		{"vC3 review", vC3, true},
		{"vC4 publisher-at-root", vC4, false},
	}
	for _, c := range cases {
		cv := ViewClosure(c.node)
		cd := b.MappingClosure(cv)
		if got := cv.Equivalent(cd); got != c.want {
			t.Errorf("%s: clean = %v, want %v (CV=%s CD=%s)", c.name, got, c.want, cv, cd)
		}
	}
}

// TestSetNullPolicyClosure: under SET NULL the publisher closure must
// not cascade into book (the §7.3 PSD scenario).
func TestSetNullPolicyClosure(t *testing.T) {
	schema, err := bookdb.Schema(relational.DeleteSetNull)
	if err != nil {
		t.Fatal(err)
	}
	q, err := xqparse.ParseViewQuery(bookdb.ViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildViewASG(q, schema)
	if err != nil {
		t.Fatal(err)
	}
	b := BuildBaseASG(g, schema)
	pubC := b.RelationClosure("publisher")
	if want := NewClosure("publisher.pubid", "publisher.pubname"); !pubC.Equal(want) {
		t.Errorf("publisher+ under SET NULL = %s, want %s", pubC, want)
	}
	// vC4 (publisher at root) becomes clean: its view closure now
	// matches its mapping closure exactly.
	vC4 := g.InternalNodes()[3]
	cv := ViewClosure(vC4)
	cd := b.MappingClosure(cv)
	if !cv.Equivalent(cd) {
		t.Errorf("vC4 under SET NULL should be clean (CV=%s CD=%s)", cv, cd)
	}
}

func TestResolvePath(t *testing.T) {
	g, _ := buildBookASG(t)
	vC2 := g.Root.ResolvePath([]string{"book", "publisher"})
	if vC2 == nil || vC2.Kind != KindInternal || vC2.UPBinding.String() != "{publisher}" {
		t.Fatalf("resolve book/publisher = %+v", vC2)
	}
	vS := g.Root.ResolvePath([]string{"book", "bookid"})
	if vS == nil || vS.Kind != KindTag {
		t.Fatalf("resolve book/bookid = %+v", vS)
	}
	if leaf := vS.LeafUnder(); leaf == nil || leaf.RelAttr() != "book.bookid" {
		t.Fatalf("leaf under bookid = %+v", vS.LeafUnder())
	}
	if g.Root.ResolvePath([]string{"nosuch"}) != nil {
		t.Error("bogus path resolved")
	}
}

func TestRelSetOps(t *testing.T) {
	a := NewRelSet("book", "publisher")
	b := NewRelSet("publisher")
	if d := a.Minus(b); len(d) != 1 || !d.Has("book") {
		t.Errorf("minus = %s", d)
	}
	if !a.Intersects(b) {
		t.Error("intersects failed")
	}
	if a.Intersects(NewRelSet("review")) {
		t.Error("false intersection")
	}
	if a.String() != "{book,publisher}" {
		t.Errorf("String = %s", a)
	}
}

// Property: Equivalent is reflexive and symmetric; AppearsIn is
// reflexive and transitive on a random containment chain.
func TestQuickClosureProperties(t *testing.T) {
	f := func(names []string) bool {
		if len(names) == 0 {
			names = []string{"r.a"}
		}
		if len(names) > 8 {
			names = names[:8]
		}
		qualified := make([]string, len(names))
		for i, n := range names {
			qualified[i] = "r." + sanitize(n) + string(rune('a'+i))
		}
		c := NewClosure(qualified...)
		if !c.Equivalent(c) || !c.AppearsIn(c) {
			return false
		}
		// Wrap in a group: inner appears in outer, not vice versa
		// (unless outer leaves are empty and group equals...).
		outer := NewClosure("r.extra").AddGroup("", c)
		return c.AppearsIn(outer) && !outer.AppearsIn(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func sanitize(s string) string {
	out := []rune{}
	for _, r := range s {
		if r >= 'a' && r <= 'z' {
			out = append(out, r)
		}
		if len(out) > 4 {
			break
		}
	}
	return string(out)
}

// Property: SquareUnion drops closures contained in others and keeps
// the container.
func TestSquareUnionDedup(t *testing.T) {
	inner := NewClosure("review.reviewid", "review.comment")
	outer := NewClosure("book.bookid").AddGroup("c", inner)
	u := SquareUnion([]*Closure{inner, outer})
	if !u.Equal(outer) {
		t.Errorf("⊔ = %s, want %s", u, outer)
	}
	// Symmetric equals keep exactly one.
	u2 := SquareUnion([]*Closure{inner, NewClosure("review.reviewid", "review.comment")})
	if !u2.Equal(inner) {
		t.Errorf("⊔ of equals = %s", u2)
	}
}

// NewClosure builds a closure from leaf names.
func NewClosure(leaves ...string) *Closure {
	c := &Closure{Leaves: map[string]bool{}}
	for _, l := range leaves {
		c.Leaves[strings.ToLower(l)] = true
	}
	return c
}

// AddGroup appends a starred subgroup and returns c.
func (c *Closure) AddGroup(cond string, sub *Closure) *Closure {
	c.Groups = append(c.Groups, &ClosureGroup{Cond: cond, Sub: sub})
	return c
}
