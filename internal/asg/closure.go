package asg

import (
	"sort"
	"strings"
)

// Closure is the set-tree representation of a node's closure v+
// (Section 5.1.2): the relational attributes reachable at this level
// plus starred subgroups for repeating substructures. Cardinalities 1
// and ? are omitted (their leaves inline into the parent level); + and *
// both become groups, matching the paper's simplification.
type Closure struct {
	Leaves map[string]bool
	Groups []*ClosureGroup
}

// ClosureGroup is one starred subgroup, labeled by its join condition.
type ClosureGroup struct {
	Cond string
	Sub  *Closure
}

// AllLeaves returns every leaf attribute in the closure tree, sorted.
func (c *Closure) AllLeaves() []string {
	set := map[string]bool{}
	var walk func(*Closure)
	walk = func(x *Closure) {
		for l := range x.Leaves {
			set[l] = true
		}
		for _, g := range x.Groups {
			walk(g.Sub)
		}
	}
	walk(c)
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// String renders the closure in the paper's notation:
// {a, b, (c, d)*cond}.
func (c *Closure) String() string {
	var parts []string
	leaves := make([]string, 0, len(c.Leaves))
	for l := range c.Leaves {
		leaves = append(leaves, l)
	}
	sort.Strings(leaves)
	parts = append(parts, leaves...)
	for _, g := range c.Groups {
		s := g.Sub.String() + "*"
		if g.Cond != "" {
			s += "[" + g.Cond + "]"
		}
		parts = append(parts, s)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Equal reports structural equality: same leaf set and pairwise-equal
// groups (conditions are not compared — two closures over the same
// attributes with differently-spelled join conditions are the same
// update footprint).
func (c *Closure) Equal(o *Closure) bool {
	if len(c.Leaves) != len(o.Leaves) || len(c.Groups) != len(o.Groups) {
		return false
	}
	for l := range c.Leaves {
		if !o.Leaves[l] {
			return false
		}
	}
	used := make([]bool, len(o.Groups))
	for _, g := range c.Groups {
		found := false
		for j, og := range o.Groups {
			if used[j] {
				continue
			}
			if g.Sub.Equal(og.Sub) {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// AppearsIn implements the paper's containment C1 ⊆ C2 ("C1 appears in
// C2"): either C1 matches directly at C2's top level — C1's leaves are a
// subset of C2's and each group of C1 equals some group of C2 — or C1
// appears inside one of C2's subgroups.
func (c *Closure) AppearsIn(o *Closure) bool {
	if c.matchesAt(o) {
		return true
	}
	for _, g := range o.Groups {
		if c.AppearsIn(g.Sub) {
			return true
		}
	}
	return false
}

func (c *Closure) matchesAt(o *Closure) bool {
	for l := range c.Leaves {
		if !o.Leaves[l] {
			return false
		}
	}
	used := make([]bool, len(o.Groups))
	for _, g := range c.Groups {
		found := false
		for j, og := range o.Groups {
			if used[j] {
				continue
			}
			if g.Sub.Equal(og.Sub) {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Equivalent implements the paper's ≡: mutual containment (Definition 2
// uses this to decide clean vs dirty update points).
func (c *Closure) Equivalent(o *Closure) bool {
	return c.AppearsIn(o) && o.AppearsIn(c)
}

// SquareUnion implements the ⊔ operation: combine closures, dropping any
// closure that appears in another (duplicate elimination). When several
// independent closures remain they merge at the top level.
func SquareUnion(closures []*Closure) *Closure {
	var kept []*Closure
	for i, c := range closures {
		contained := false
		for j, o := range closures {
			if i == j {
				continue
			}
			if c.AppearsIn(o) {
				// Symmetric containment: keep only the first.
				if o.AppearsIn(c) && i < j {
					continue
				}
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, c)
		}
	}
	out := &Closure{Leaves: map[string]bool{}}
	for _, c := range kept {
		for l := range c.Leaves {
			out.Leaves[l] = true
		}
		out.Groups = append(out.Groups, c.Groups...)
	}
	return out
}

// ViewClosure computes v+ for a view ASG node: leaves reachable through
// 1/? edges inline at the current level; + and * edges open starred
// subgroups (Section 5.1.2).
func ViewClosure(n *Node) *Closure {
	c := &Closure{Leaves: map[string]bool{}}
	if n.Kind == KindLeaf {
		c.Leaves[n.RelAttr()] = true
		return c
	}
	for _, child := range n.Children {
		sub := ViewClosure(child)
		if child.EdgeCard.Repeating() {
			cond := ""
			if len(child.EdgeConds) > 0 {
				conds := make([]string, len(child.EdgeConds))
				for i, jc := range child.EdgeConds {
					conds[i] = jc.String()
				}
				cond = strings.Join(conds, " AND ")
			}
			c.Groups = append(c.Groups, &ClosureGroup{Cond: cond, Sub: sub})
			continue
		}
		for l := range sub.Leaves {
			c.Leaves[l] = true
		}
		c.Groups = append(c.Groups, sub.Groups...)
	}
	return c
}
