// Package xmltree provides the XML document model used for materialized
// views and update fragments: a minimal ordered tree of element and text
// nodes with serialization, parsing and path navigation. It intentionally
// omits attributes, namespaces and processing instructions — the views
// the paper handles (SilkRoute-style publishing) are element-only — and
// Parse refuses the first two (ErrUnsupported) rather than drop them.
package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Node is an XML node: an element (Name set, Text empty) or a text node
// (Name empty).
type Node struct {
	Name     string
	Text     string
	Children []*Node
}

// Elem constructs an element node.
func Elem(name string, children ...*Node) *Node {
	return &Node{Name: name, Children: children}
}

// Text constructs a text node.
func Text(s string) *Node { return &Node{Text: s} }

// IsElement reports whether the node is an element.
func (n *Node) IsElement() bool { return n.Name != "" }

// Append adds children and returns n for chaining.
func (n *Node) Append(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// ChildrenNamed returns all child elements with the given name.
func (n *Node) ChildrenNamed(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// ElementChildren returns all child elements (skipping text nodes).
func (n *Node) ElementChildren() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.IsElement() {
			out = append(out, c)
		}
	}
	return out
}

// TextContent concatenates all descendant text, trimmed.
func (n *Node) TextContent() string {
	if len(n.Children) == 1 && !n.Children[0].IsElement() {
		return strings.TrimSpace(n.Children[0].Text) // the common leaf shape, copy-free
	}
	var b strings.Builder
	var walk func(*Node)
	walk = func(m *Node) {
		if !m.IsElement() {
			b.WriteString(m.Text)
			return
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return strings.TrimSpace(b.String())
}

// FindAll returns every node reachable by the path (cartesian over
// repeated elements).
func (n *Node) FindAll(path ...string) []*Node {
	frontier := []*Node{n}
	for _, p := range path {
		var next []*Node
		for _, f := range frontier {
			next = append(next, f.ChildrenNamed(p)...)
		}
		frontier = next
	}
	return frontier
}

// Clone deep-copies the subtree.
func (n *Node) Clone() *Node {
	out := &Node{Name: n.Name, Text: n.Text}
	for _, c := range n.Children {
		out.Children = append(out.Children, c.Clone())
	}
	return out
}

// String serializes the subtree with two-space indentation.
func (n *Node) String() string {
	var b strings.Builder
	n.serialize(&b, 0, true)
	return b.String()
}

func (n *Node) serialize(b *strings.Builder, depth int, indent bool) {
	pad := ""
	if indent {
		pad = strings.Repeat("  ", depth)
	}
	if !n.IsElement() {
		if s := strings.TrimSpace(n.Text); s != "" {
			b.WriteString(pad)
			xml.EscapeText(b, []byte(s))
			if indent {
				b.WriteByte('\n')
			}
		}
		return
	}
	b.WriteString(pad)
	b.WriteByte('<')
	b.WriteString(n.Name)
	if len(n.Children) == 0 {
		b.WriteString("/>")
		if indent {
			b.WriteByte('\n')
		}
		return
	}
	b.WriteByte('>')
	// Single text child renders inline.
	if len(n.Children) == 1 && !n.Children[0].IsElement() {
		xml.EscapeText(b, []byte(n.Children[0].Text))
		b.WriteString("</")
		b.WriteString(n.Name)
		b.WriteByte('>')
		if indent {
			b.WriteByte('\n')
		}
		return
	}
	if indent {
		b.WriteByte('\n')
	}
	for _, c := range n.Children {
		c.serialize(b, depth+1, indent)
	}
	b.WriteString(pad)
	b.WriteString("</")
	b.WriteString(n.Name)
	b.WriteByte('>')
	if indent {
		b.WriteByte('\n')
	}
}

// ErrUnsupported reports XML outside the element-only model: an
// attribute or a namespace prefix, which Parse would otherwise drop.
var ErrUnsupported = errors.New("xmltree: attributes and namespace prefixes are not supported")

// Parse builds a Node tree from serialized XML with a single root
// element. A malformed document fails with the decoder's own error.
func Parse(s string) (*Node, error) {
	dec := xml.NewDecoder(strings.NewReader(s))
	var stack []*Node
	var root *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space != "" || len(t.Attr) > 0 {
				return nil, fmt.Errorf("%w: element <%s>", ErrUnsupported, t.Name.Local)
			}
			n := Elem(t.Name.Local)
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				top.Children = append(top.Children, n)
			} else if root == nil {
				root = n
			} else {
				return nil, fmt.Errorf("xmltree: multiple root elements")
			}
			stack = append(stack, n)
		case xml.EndElement: // the decoder has matched it to its start
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				if s := string(t); strings.TrimSpace(s) != "" {
					top := stack[len(stack)-1]
					top.Children = append(top.Children, Text(strings.TrimSpace(s)))
				}
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: no root element")
	}
	return root, nil // the decoder fails an unclosed element at EOF
}

// RemoveChild deletes the first occurrence of the given child pointer
// and reports whether it was found.
func (n *Node) RemoveChild(child *Node) bool {
	for i, c := range n.Children {
		if c == child {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			return true
		}
	}
	return false
}
