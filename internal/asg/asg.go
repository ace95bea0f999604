// Package asg implements the Annotated Schema Graph (Section 3 of the
// U-Filter paper): the internal representation U-Filter uses to model
// the constraints of both the view query and the relational schema.
// Two graphs are built once per view definition and reused for every
// update checked afterwards:
//
//   - The view ASG ([ViewASG], built by [BuildViewASG] from a parsed
//     view query; Fig. 7 top) captures the XML hierarchy the view
//     exposes: element nesting with edge cardinalities (1, ?, *, +),
//     the join conditions of each FLWR block, the update-context and
//     update-point relation bindings (the paper's UCBinding and
//     UPBinding, stored on each [Node]), and per-leaf constraint
//     annotations (type/domain, NOT NULL, CHECK) lifted from the
//     relational schema.
//
//   - The base ASG ([BaseASG], built by [BuildBaseASG]; Fig. 7 bottom)
//     is the key/foreign-key DAG over exactly the relations and
//     attributes the view touches, giving STAR the dependency
//     information Rules 1-3 reason over.
//
// The package also provides the closure machinery of Section 5.1.2:
// [ViewClosure] computes the attribute closure of a view node's
// subtree, [BaseASG.MappingClosure] chases keys and foreign keys
// through the base DAG, and their equivalence ([Closure.Equivalent])
// decides the clean/dirty update-point type — the UPoint half of the
// (UPoint|UContext) marks that internal/ufilter's STAR marking
// (Algorithm 1) attaches to every internal node.
package asg

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relational"
	"repro/internal/xqparse"
)

// NodeKind enumerates view ASG node kinds (Section 3.2).
type NodeKind int

const (
	// KindRoot is the view root (vR).
	KindRoot NodeKind = iota
	// KindInternal is a complex-element node (vC).
	KindInternal
	// KindTag is a simple-element node above a leaf (vS).
	KindTag
	// KindLeaf is an atomic text node (vL).
	KindLeaf
)

// String names the kind with the paper's prefixes.
func (k NodeKind) String() string {
	switch k {
	case KindRoot:
		return "vR"
	case KindInternal:
		return "vC"
	case KindTag:
		return "vS"
	case KindLeaf:
		return "vL"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Cardinality is an edge's type annotation, from {1, ?, +, *}.
type Cardinality int

const (
	// CardOne is 1:1.
	CardOne Cardinality = iota
	// CardOpt is 1:{0,1}.
	CardOpt
	// CardPlus is 1:n, n >= 1.
	CardPlus
	// CardStar is 1:n, n >= 0.
	CardStar
)

// String renders the cardinality symbol.
func (c Cardinality) String() string {
	switch c {
	case CardOne:
		return "1"
	case CardOpt:
		return "?"
	case CardPlus:
		return "+"
	case CardStar:
		return "*"
	default:
		return fmt.Sprintf("Cardinality(%d)", int(c))
	}
}

// Repeating reports whether the edge may produce multiple children.
func (c Cardinality) Repeating() bool { return c == CardPlus || c == CardStar }

// Ref is one side of a compiled predicate: a relational attribute or a
// literal.
type Ref struct {
	IsLit bool
	Lit   relational.Value
	Rel   string // lowercase relation
	Col   string // lowercase column
}

// CompiledPred is a view-query predicate with its operands resolved to
// relational attributes. The data-driven checking step composes probe
// queries from these (Section 6.1).
type CompiledPred struct {
	Left  Ref
	Op    relational.CompareOp
	Right Ref
}

// IsCorrelation reports whether both sides are attributes.
func (p CompiledPred) IsCorrelation() bool { return !p.Left.IsLit && !p.Right.IsLit }

// String renders the predicate in SQL-ish syntax.
func (p CompiledPred) String() string {
	render := func(r Ref) string {
		if r.IsLit {
			return r.Lit.String()
		}
		return r.Rel + "." + r.Col
	}
	return fmt.Sprintf("%s %s %s", render(p.Left), p.Op, render(p.Right))
}

// JoinCond is a correlation predicate annotated onto an edge:
// LeftRel.LeftCol = RightRel.RightCol.
type JoinCond struct {
	LeftRel  string
	LeftCol  string
	RightRel string
	RightCol string
}

// String renders the condition.
func (j JoinCond) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", j.LeftRel, j.LeftCol, j.RightRel, j.RightCol)
}

// RelSet is a set of relation names (lowercase keys).
type RelSet map[string]bool

// NewRelSet builds a set from names.
func NewRelSet(names ...string) RelSet {
	s := make(RelSet, len(names))
	for _, n := range names {
		s[strings.ToLower(n)] = true
	}
	return s
}

// Clone copies the set.
func (s RelSet) Clone() RelSet {
	out := make(RelSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// Add inserts a name.
func (s RelSet) Add(name string) { s[strings.ToLower(name)] = true }

// Has reports membership.
func (s RelSet) Has(name string) bool { return s[strings.ToLower(name)] }

// Minus returns s − o.
func (s RelSet) Minus(o RelSet) RelSet {
	out := RelSet{}
	for k := range s {
		if !o[k] {
			out[k] = true
		}
	}
	return out
}

// Intersects reports whether the sets share an element.
func (s RelSet) Intersects(o RelSet) bool {
	for k := range s {
		if o[k] {
			return true
		}
	}
	return false
}

// Names returns the sorted member names.
func (s RelSet) Names() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders the set like {book,publisher}.
func (s RelSet) String() string {
	return "{" + strings.Join(s.Names(), ",") + "}"
}

// UContext is a node's update context type (Section 5.1.1).
type UContext struct {
	SafeDelete bool
	SafeInsert bool
}

// String renders the mark in the paper's notation (s-d ∧ u-i etc.).
func (u UContext) String() string {
	d, i := "u-d", "u-i"
	if u.SafeDelete {
		d = "s-d"
	}
	if u.SafeInsert {
		i = "s-i"
	}
	return d + "^" + i
}

// Node is one view ASG node with its annotations.
type Node struct {
	ID   int
	Kind NodeKind
	Name string // tag name; "text()" for leaves

	// Leaf annotations (Section 3.2, Node Annotation Table).
	RelName string // owning relation, lowercase
	ColName string // owning column, lowercase
	Type    relational.Type
	NotNull bool
	Checks  []relational.CheckPredicate
	// Selected marks a leaf that a view selection predicate reads (its
	// check annotations include one, like price < 50.00): a schema CHECK
	// passes NULL, a view predicate does not, so NULLing the leaf drops
	// its element from the view.
	Selected bool

	// Internal/root annotations.
	UCBinding RelSet
	UPBinding RelSet

	// Structure. EdgeCard / EdgeConds describe the incoming edge.
	Parent    *Node
	Children  []*Node
	EdgeCard  Cardinality
	EdgeConds []JoinCond

	// Provenance for translation: the FLWR constructing this node (for
	// '*' edges) and, for tag nodes, the projected variable's relation.
	FLWR *xqparse.FLWR

	// ScopePreds are all view-query predicates of the FLWRs enclosing
	// this node, compiled to relational attributes. The probe queries of
	// Section 6.1 are composed from these plus the user's predicates.
	ScopePreds []CompiledPred

	// STAR marks (Section 5.1), filled by the marking procedure.
	Marked bool
	UCtx   UContext
	Clean  bool
	// DeleteAnchor is the witness relation R from Rule 2 — the smallest
	// clean-extended-source search anchor used by the translator.
	DeleteAnchor string
}

// RelAttr returns the qualified relational attribute of a leaf
// ("book.bookid"), or "" for non-leaves.
func (n *Node) RelAttr() string {
	if n.Kind != KindLeaf || n.RelName == "" {
		return ""
	}
	return n.RelName + "." + n.ColName
}

// Label renders the paper-style node label (vC1, vL3, ...).
func (n *Node) Label() string { return fmt.Sprintf("%s%d", n.Kind, n.ID) }

// IsDescendantOf reports whether n lies strictly below a.
func (n *Node) IsDescendantOf(a *Node) bool {
	for p := n.Parent; p != nil; p = p.Parent {
		if p == a {
			return true
		}
	}
	return false
}

// CR computes the paper's Current Relations: CR(v) = UCBinding(v) −
// UCBinding(parent(v)). The root's CR is its UCBinding.
func (n *Node) CR() RelSet {
	if n.Parent == nil {
		return n.UCBinding.Clone()
	}
	return n.UCBinding.Minus(n.Parent.UCBinding)
}

// ViewASG is the annotated schema graph of a view (G_V).
type ViewASG struct {
	Root   *Node
	Nodes  []*Node // all nodes in construction order
	Schema *relational.Schema
	Query  *xqparse.ViewQuery

	counters map[NodeKind]int
}

// InternalNodes returns the vC nodes in construction order.
func (g *ViewASG) InternalNodes() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Kind == KindInternal {
			out = append(out, n)
		}
	}
	return out
}

// Leaves returns the vL nodes in construction order.
func (g *ViewASG) Leaves() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Kind == KindLeaf {
			out = append(out, n)
		}
	}
	return out
}

// Relations returns rel(DEF_V): every relation bound by a FOR clause.
func (g *ViewASG) Relations() RelSet {
	out := RelSet{}
	for _, n := range g.Nodes {
		for r := range n.UCBinding {
			out[r] = true
		}
		for r := range n.UPBinding {
			out[r] = true
		}
	}
	return out
}

func (g *ViewASG) newNode(kind NodeKind, name string, parent *Node) *Node {
	g.counters[kind]++
	n := &Node{
		ID:        g.counters[kind],
		Kind:      kind,
		Name:      name,
		Parent:    parent,
		UCBinding: RelSet{},
		UPBinding: RelSet{},
	}
	if parent != nil {
		parent.Children = append(parent.Children, n)
	}
	g.Nodes = append(g.Nodes, n)
	return n
}

// scope tracks the FOR-bound variables visible at a point of the view
// query, with their relation names.
type scope struct {
	varTable map[string]string // var -> relation (lowercase)
	tables   RelSet            // all FOR-bound relations so far
	// nonCorrelation predicates in scope, for leaf check annotations.
	localPreds []xqparse.Pred
	// compiled carries every enclosing predicate resolved to attributes.
	compiled []CompiledPred
}

func (s scope) child() scope {
	out := scope{
		varTable:   make(map[string]string, len(s.varTable)),
		tables:     s.tables.Clone(),
		localPreds: append([]xqparse.Pred(nil), s.localPreds...),
		compiled:   append([]CompiledPred(nil), s.compiled...),
	}
	for k, v := range s.varTable {
		out.varTable[k] = v
	}
	return out
}

// compileOperand resolves a predicate operand against the scope.
func (s scope) compileOperand(o xqparse.PredOperand) (Ref, error) {
	if o.IsLiteral {
		return Ref{IsLit: true, Lit: o.Lit}, nil
	}
	t, ok := s.varTable[o.Var]
	if !ok {
		return Ref{}, fmt.Errorf("asg: unbound variable $%s in predicate", o.Var)
	}
	return Ref{Rel: t, Col: strings.ToLower(o.Field)}, nil
}

// BuildViewASG constructs the view ASG from a parsed view query and the
// relational schema, following the SilkRoute-style computation the paper
// references (Section 3.2, [33]).
func BuildViewASG(q *xqparse.ViewQuery, schema *relational.Schema) (*ViewASG, error) {
	g := &ViewASG{Schema: schema, Query: q, counters: map[NodeKind]int{}}
	g.Root = g.newNode(KindRoot, q.RootTag, nil)
	g.Root.EdgeCard = CardOne
	sc := scope{varTable: map[string]string{}, tables: RelSet{}}
	if err := g.buildItems(q.Items, sc, g.Root, nil); err != nil {
		return nil, err
	}
	g.computeUPBindings()
	return g, nil
}

// buildItems adds items under parent. flwr is the innermost FLWR whose
// RETURN clause these items belong to (nil at the top of a constructor
// chain); its correlation predicates annotate the '*' edges of the
// elements it constructs.
func (g *ViewASG) buildItems(items []xqparse.BodyItem, sc scope, parent *Node, flwr *xqparse.FLWR) error {
	for _, it := range items {
		switch n := it.(type) {
		case *xqparse.FLWR:
			inner := sc.child()
			for _, b := range n.Bindings {
				t := b.Source.Table()
				if t == "" {
					return fmt.Errorf("asg: binding $%s is not over the default view (source %s)", b.Var, b.Source)
				}
				if _, ok := g.Schema.Table(t); !ok {
					return fmt.Errorf("asg: %w: %s", relational.ErrNoSuchTable, t)
				}
				inner.varTable[b.Var] = strings.ToLower(t)
				inner.tables.Add(t)
			}
			for _, p := range n.Preds {
				if !p.IsCorrelation() {
					inner.localPreds = append(inner.localPreds, p)
				}
				left, err := inner.compileOperand(p.Left)
				if err != nil {
					return err
				}
				right, err := inner.compileOperand(p.Right)
				if err != nil {
					return err
				}
				inner.compiled = append(inner.compiled, CompiledPred{Left: left, Op: p.Op, Right: right})
			}
			if err := g.buildItems(n.Return, inner, parent, n); err != nil {
				return err
			}
		case *xqparse.Constructor:
			node := g.newNode(KindInternal, n.Tag, parent)
			node.UCBinding = sc.tables.Clone()
			node.ScopePreds = append([]CompiledPred(nil), sc.compiled...)
			if flwr != nil {
				node.EdgeCard = CardStar
				node.FLWR = flwr
				conds, err := g.joinConds(flwr, sc)
				if err != nil {
					return err
				}
				node.EdgeConds = conds
			} else {
				node.EdgeCard = CardOne
			}
			if err := g.buildItems(n.Items, sc, node, nil); err != nil {
				return err
			}
		case *xqparse.Projection:
			if err := g.buildProjection(n, sc, parent, flwr); err != nil {
				return err
			}
		case *xqparse.TextLiteral:
			// Constant text contributes no schema node.
		default:
			return fmt.Errorf("asg: unsupported body item %T", it)
		}
	}
	return nil
}

// joinConds extracts the correlation predicates of a FLWR as qualified
// join conditions.
func (g *ViewASG) joinConds(f *xqparse.FLWR, sc scope) ([]JoinCond, error) {
	resolve := func(o xqparse.PredOperand, inner map[string]string) (string, bool) {
		if t, ok := inner[o.Var]; ok {
			return t, true
		}
		if t, ok := sc.varTable[o.Var]; ok {
			return t, true
		}
		return "", false
	}
	inner := make(map[string]string, len(f.Bindings))
	for _, b := range f.Bindings {
		inner[b.Var] = strings.ToLower(b.Source.Table())
	}
	var out []JoinCond
	for _, p := range f.Preds {
		if !p.IsCorrelation() || p.Op != relational.OpEQ {
			continue
		}
		lt, lok := resolve(p.Left, inner)
		rt, rok := resolve(p.Right, inner)
		if !lok || !rok {
			return nil, fmt.Errorf("asg: unresolved variable in predicate %s", p)
		}
		out = append(out, JoinCond{
			LeftRel: lt, LeftCol: strings.ToLower(p.Left.Field),
			RightRel: rt, RightCol: strings.ToLower(p.Right.Field),
		})
	}
	return out, nil
}

// buildProjection adds the vS/vL pair for $var/field, annotating the
// leaf with the column's constraints plus any in-scope non-correlation
// view predicates over the same attribute (Fig. 8's check annotations).
func (g *ViewASG) buildProjection(pr *xqparse.Projection, sc scope, parent *Node, flwr *xqparse.FLWR) error {
	table, ok := sc.varTable[pr.Var]
	if !ok {
		return fmt.Errorf("asg: unbound variable $%s in projection", pr.Var)
	}
	def, ok := g.Schema.Table(table)
	if !ok {
		return fmt.Errorf("asg: %w: %s", relational.ErrNoSuchTable, table)
	}
	col, ok := def.ColumnNamed(pr.Field)
	if !ok {
		return fmt.Errorf("asg: %w: %s.%s", relational.ErrNoSuchColumn, table, pr.Field)
	}

	tag := g.newNode(KindTag, pr.Field, parent)
	tag.UCBinding = sc.tables.Clone()
	tag.ScopePreds = append([]CompiledPred(nil), sc.compiled...)
	tag.RelName = strings.ToLower(table)
	tag.ColName = strings.ToLower(col.Name)
	if flwr != nil {
		// A projection directly in a FLWR's RETURN repeats per binding.
		tag.EdgeCard = CardStar
		tag.FLWR = flwr
	} else {
		tag.EdgeCard = CardOne
	}

	leaf := g.newNode(KindLeaf, "text()", tag)
	leaf.RelName = strings.ToLower(table)
	leaf.ColName = strings.ToLower(col.Name)
	leaf.Type = col.Type
	leaf.NotNull = def.IsNotNullColumn(col.Name)
	leaf.Checks = append(leaf.Checks, col.Checks...)
	if leaf.NotNull {
		leaf.EdgeCard = CardOne
	} else {
		leaf.EdgeCard = CardOpt
	}
	// Non-correlation view predicates over this attribute become check
	// annotations (e.g. price < 50.00 from the BookView WHERE clause).
	for _, p := range sc.localPreds {
		lit, path := p.Right, p.Left
		if path.IsLiteral {
			lit, path = p.Left, p.Right
		}
		if path.IsLiteral || !lit.IsLiteral {
			continue
		}
		t, ok := sc.varTable[path.Var]
		if !ok || t != leaf.RelName || !strings.EqualFold(path.Field, col.Name) {
			continue
		}
		op := p.Op
		if path == p.Right { // literal op path  =>  path flipped-op literal
			op = op.Flip()
		}
		leaf.Checks = append(leaf.Checks, relational.CheckPredicate{Op: op, Operand: lit.Lit})
		leaf.Selected = true
	}
	return nil
}

// computeUPBindings fills UPBinding(v) for every node: the relations
// referenced anywhere in v's subtree (Section 3.2).
func (g *ViewASG) computeUPBindings() {
	var walk func(n *Node) RelSet
	walk = func(n *Node) RelSet {
		set := RelSet{}
		if n.RelName != "" {
			set.Add(n.RelName)
		}
		for _, c := range n.Children {
			for r := range walk(c) {
				set[r] = true
			}
		}
		n.UPBinding = set
		return set
	}
	walk(g.Root)
}

// FindChild returns the child element node of n with the given tag name.
func (n *Node) FindChild(name string) *Node {
	for _, c := range n.Children {
		if strings.EqualFold(c.Name, name) && c.Kind != KindLeaf {
			return c
		}
	}
	return nil
}

// ResolvePath walks element names from n (tag or internal nodes).
func (n *Node) ResolvePath(path []string) *Node {
	cur := n
	for _, p := range path {
		cur = cur.FindChild(p)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// LeafUnder returns the vL node under a tag node, or nil.
func (n *Node) LeafUnder() *Node {
	for _, c := range n.Children {
		if c.Kind == KindLeaf {
			return c
		}
	}
	return nil
}
