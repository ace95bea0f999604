package asg

import (
	"sort"
	"strings"

	"repro/internal/relational"
)

// BaseRel is one relation node of the base ASG (G_D), carrying only the
// attributes the view actually touches plus the foreign-key edges to the
// relations that reference it.
type BaseRel struct {
	Leaves []string // qualified attribute names ("book.bookid"), sorted
	// Referencing lists relations with a foreign key pointing at this
	// one (edge (n_this, n_child) in the paper's DAG), each with the
	// key's delete policy and join condition.
	Referencing []BaseRef
	// Keys are the attributes annotated property={Key}.
	Keys []string
}

// BaseRef is one FK edge of the base ASG.
type BaseRef struct {
	Child  string // referencing relation (lowercase)
	Policy relational.DeletePolicy
	Cond   JoinCond
}

// BaseASG is the constraint DAG of Section 3.2 (Fig. 9).
type BaseASG struct {
	Rels map[string]*BaseRel // by lowercase relation name
}

// BuildBaseASG derives G_D from the view ASG's leaf attributes and the
// relational schema's key/foreign-key constraints: one node per relation
// with view-visible attributes, one edge per foreign key between two
// such relations.
func BuildBaseASG(view *ViewASG, schema *relational.Schema) *BaseASG {
	g := &BaseASG{Rels: map[string]*BaseRel{}}
	leafSet := map[string]map[string]bool{} // rel -> attr set
	for _, l := range view.Leaves() {
		if l.RelName == "" {
			continue
		}
		if leafSet[l.RelName] == nil {
			leafSet[l.RelName] = map[string]bool{}
		}
		leafSet[l.RelName][l.RelAttr()] = true
	}
	for rel, attrs := range leafSet {
		br := &BaseRel{}
		for a := range attrs {
			br.Leaves = append(br.Leaves, a)
		}
		sort.Strings(br.Leaves)
		if def, ok := schema.Table(rel); ok {
			for _, pk := range def.PrimaryKey {
				br.Keys = append(br.Keys, rel+"."+strings.ToLower(pk))
			}
			for _, c := range def.Columns {
				if c.Unique {
					br.Keys = append(br.Keys, rel+"."+strings.ToLower(c.Name))
				}
			}
		}
		g.Rels[rel] = br
	}
	// FK edges between relations present in the graph.
	for rel := range g.Rels {
		def, ok := schema.Table(rel)
		if !ok {
			continue
		}
		for _, fk := range def.ForeignKeys {
			refName := strings.ToLower(fk.RefTable)
			parent, ok := g.Rels[refName]
			if !ok {
				continue
			}
			cond := JoinCond{
				LeftRel: rel, LeftCol: strings.ToLower(fk.Columns[0]),
				RightRel: refName, RightCol: strings.ToLower(fk.RefColumns[0]),
			}
			parent.Referencing = append(parent.Referencing, BaseRef{
				Child: rel, Policy: fk.OnDelete, Cond: cond,
			})
		}
	}
	// Deterministic edge order.
	for _, br := range g.Rels {
		sort.Slice(br.Referencing, func(i, j int) bool {
			return br.Referencing[i].Child < br.Referencing[j].Child
		})
	}
	return g
}

// RelationClosure computes the closure n+ of a relation node under the
// configured delete policies: the relation's own leaves plus, for every
// CASCADE foreign key from a view-visible relation, a starred group with
// that child's closure (Section 5.1.2). SET NULL and RESTRICT policies
// do not propagate deletes, so their children are excluded — exactly the
// paper's note that the closure definition follows the update policy.
func (g *BaseASG) RelationClosure(rel string) *Closure {
	return g.relationClosure(strings.ToLower(rel), map[string]bool{})
}

func (g *BaseASG) relationClosure(rel string, visiting map[string]bool) *Closure {
	br, ok := g.Rels[rel]
	if !ok {
		return &Closure{Leaves: map[string]bool{}}
	}
	c := &Closure{Leaves: map[string]bool{}}
	for _, l := range br.Leaves {
		c.Leaves[l] = true
	}
	if visiting[rel] {
		return c // FK cycle: cut off, the paper's views are acyclic
	}
	visiting[rel] = true
	defer delete(visiting, rel)
	for _, ref := range br.Referencing {
		if ref.Policy != relational.DeleteCascade {
			continue
		}
		sub := g.relationClosure(ref.Child, visiting)
		c.Groups = append(c.Groups, &ClosureGroup{Cond: ref.Cond.String(), Sub: sub})
	}
	return c
}

// MappingClosure computes the mapping closure C_D of a view ASG internal
// node (Section 5.1.2): collect the distinct relational attributes of
// the node's view closure, map them to base relations, take each
// relation's closure, and combine with the duplicate-eliminating union ⊔
// (closures contained in another are dropped).
func (g *BaseASG) MappingClosure(viewClosure *Closure) *Closure {
	rels := map[string]bool{}
	for _, attr := range viewClosure.AllLeaves() {
		if i := strings.IndexByte(attr, '.'); i > 0 {
			rels[attr[:i]] = true
		}
	}
	names := make([]string, 0, len(rels))
	for r := range rels {
		names = append(names, r)
	}
	sort.Strings(names)
	closures := make([]*Closure, 0, len(names))
	for _, r := range names {
		closures = append(closures, g.RelationClosure(r))
	}
	return SquareUnion(closures)
}
