package xmltree

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTree() *Node {
	return Elem("book",
		ElemText("bookid", "98001"),
		ElemText("title", "TCP/IP Illustrated"),
		Elem("publisher",
			ElemText("pubid", "A01"),
			ElemText("pubname", "McGraw-Hill Inc."),
		),
		Elem("review", ElemText("reviewid", "001"), ElemText("comment", "A good book on network.")),
		Elem("review", ElemText("reviewid", "002"), ElemText("comment", "Useful for advanced user.")),
	)
}

func TestNavigation(t *testing.T) {
	b := sampleTree()
	if got := b.ChildText("bookid"); got != "98001" {
		t.Errorf("bookid = %q", got)
	}
	if got := b.Find("publisher", "pubname"); got == nil || got.TextContent() != "McGraw-Hill Inc." {
		t.Errorf("find publisher/pubname = %v", got)
	}
	if got := len(b.ChildrenNamed("review")); got != 2 {
		t.Errorf("reviews = %d", got)
	}
	if got := len(b.ElementChildren()); got != 5 {
		t.Errorf("element children = %d", got)
	}
	if b.Find("missing") != nil {
		t.Error("Find on missing path should be nil")
	}
}

func TestFindAll(t *testing.T) {
	root := Elem("root", sampleTree(), sampleTree())
	ids := root.FindAll("book", "review", "reviewid")
	if len(ids) != 4 {
		t.Fatalf("FindAll = %d nodes, want 4", len(ids))
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	orig := sampleTree()
	parsed, err := Parse(orig.String())
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(orig) {
		t.Fatalf("round trip mismatch:\norig:\n%s\nparsed:\n%s", orig, parsed)
	}
}

func TestSerializeEscaping(t *testing.T) {
	n := ElemText("pubname", "Simon & Schuster <Inc>")
	s := n.String()
	if !strings.Contains(s, "&amp;") || !strings.Contains(s, "&lt;Inc&gt;") {
		t.Errorf("escaping missing: %s", s)
	}
	parsed, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := parsed.TextContent(); got != "Simon & Schuster <Inc>" {
		t.Errorf("unescaped content = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "<a><b></a>", "<a></a><b></b>"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// TestParseReportsTheDecodersError: a malformed document fails with the
// decoder's own complaint, not a generic "unclosed element", and the
// attributes and prefixes the element-only model has no room for are
// refused rather than dropped.
func TestParseReportsTheDecodersError(t *testing.T) {
	for _, tc := range []struct {
		in, want    string
		unsupported bool
	}{
		{in: "<a>x &bogus; y</a>", want: "entity"},
		{in: "<a><b>1</c></a>", want: "closed by </c>"},
		{in: "<a>1", want: "unexpected EOF"},
		{in: `<p:a x="1">v</p:a>`, unsupported: true},
		{in: `<a x="1">v</a>`, unsupported: true},
		{in: "<a><p:b>v</p:b></a>", unsupported: true},
	} {
		_, err := Parse(tc.in)
		switch {
		case err == nil:
			t.Errorf("Parse(%q) succeeded", tc.in)
		case tc.unsupported != errors.Is(err, ErrUnsupported):
			t.Errorf("Parse(%q) = %v, ErrUnsupported %v", tc.in, err, tc.unsupported)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("Parse(%q) = %v, want it to mention %q", tc.in, err, tc.want)
		}
	}
	if n, err := Parse("<a>x &amp; y</a>"); err != nil || n.TextContent() != "x & y" {
		t.Errorf("Parse of an entity reference = %v, %v", n, err)
	}
}

func TestEqualIgnoresWhitespace(t *testing.T) {
	a, err := Parse("<a><b>x</b></a>")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("<a>\n  <b>\n    x\n  </b>\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("whitespace-differing trees should be Equal")
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := sampleTree()
	cl := orig.Clone()
	cl.Child("bookid").Children[0].Text = "mutated"
	if orig.ChildText("bookid") != "98001" {
		t.Error("clone mutation leaked into original")
	}
	if !orig.Clone().Equal(orig) {
		t.Error("clone not equal to original")
	}
}

func TestRemoveChild(t *testing.T) {
	b := sampleTree()
	pub := b.Child("publisher")
	if !b.RemoveChild(pub) {
		t.Fatal("RemoveChild failed")
	}
	if b.Child("publisher") != nil {
		t.Error("publisher still present")
	}
	if b.RemoveChild(pub) {
		t.Error("second removal should fail")
	}
}

func TestCount(t *testing.T) {
	// book + 2 leaf elems*2 + publisher(1+2*2) + 2 reviews(1+2*2)*2 = 1+4+5+10 = 20
	if got := sampleTree().Count(); got != 20 {
		t.Errorf("Count = %d, want 20", got)
	}
}

func TestEmptyElementSerialization(t *testing.T) {
	n := Elem("title")
	if got := n.StringCompact(); got != "<title/>" {
		t.Errorf("empty element = %q", got)
	}
}

// Property: Clone is always Equal, and serialization round-trips for
// generated leaf text.
func TestQuickRoundTrip(t *testing.T) {
	f := func(text string) bool {
		// Keep XML's Char production only — the serializer replaces
		// anything outside it (U+FFFE/U+FFFF included) with U+FFFD —
		// minus CR, which parsers normalize to LF, and U+FFFD itself.
		clean := strings.Map(func(r rune) rune {
			switch {
			case r == '\t', r == '\n',
				r >= 0x20 && r <= 0xD7FF,
				r >= 0xE000 && r < 0xFFFD,
				r >= 0x10000 && r <= 0x10FFFF:
				return r
			}
			return -1
		}, text)
		n := Elem("root", ElemText("leaf", clean))
		parsed, err := Parse(n.String())
		if err != nil {
			return false
		}
		return parsed.Equal(n) || strings.TrimSpace(clean) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Child returns the first child element with the given name.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildText returns the text content of the first child element with the
// given name, or "" when absent.
func (n *Node) ChildText(name string) string {
	c := n.Child(name)
	if c == nil {
		return ""
	}
	return c.TextContent()
}

// Find walks a path of element names from n and returns the first match.
func (n *Node) Find(path ...string) *Node {
	cur := n
	for _, p := range path {
		cur = cur.Child(p)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// Equal reports deep structural equality, ignoring whitespace-only text
// node differences.
func (n *Node) Equal(o *Node) bool {
	if n.Name != o.Name {
		return false
	}
	if !n.IsElement() && !o.IsElement() {
		return strings.TrimSpace(n.Text) == strings.TrimSpace(o.Text)
	}
	nc, oc := significantChildren(n), significantChildren(o)
	if len(nc) != len(oc) {
		return false
	}
	for i := range nc {
		if !nc[i].Equal(oc[i]) {
			return false
		}
	}
	return true
}

// StringCompact serializes without indentation or newlines.
func (n *Node) StringCompact() string {
	var b strings.Builder
	n.serialize(&b, 0, false)
	return b.String()
}

func significantChildren(n *Node) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if !c.IsElement() && strings.TrimSpace(c.Text) == "" {
			continue
		}
		out = append(out, c)
	}
	return out
}

// ElemText constructs the common leaf shape <name>text</name>.
func ElemText(name, text string) *Node {
	return Elem(name, Text(text))
}

// Count returns the total number of nodes in the subtree (elements and
// text nodes, including n).
func (n *Node) Count() int {
	total := 1
	for _, c := range n.Children {
		total += c.Count()
	}
	return total
}
