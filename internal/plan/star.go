// STAR — schema-driven translatability reasoning (Section 5): the
// marking procedure run once per view at compile time, and the per-op
// checking procedure plans consult.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/asg"
	"repro/internal/relational"
)

// UnsafeCause records which STAR rule made a node unsafe, used to decide
// whether the data-driven step can still salvage an insert (Rule 3
// unsafety is a *potential* side effect that existing base data may
// preempt; Rule 1 unsafety is structural duplication and final).
type UnsafeCause int

const (
	// CauseNone marks safe nodes.
	CauseNone UnsafeCause = iota
	// CauseRule1 marks duplication from a missing/improper join.
	CauseRule1
	// CauseRule2 marks a delete with no clean extended source.
	CauseRule2
	// CauseRule3 marks an insert that may surface another node.
	CauseRule3
	// CauseHidden marks an insert whose new rows no value can make
	// satisfy a view selection predicate over a column the node does not
	// publish: its instances would never appear.
	CauseHidden
)

// Marks carries the STAR marking of one view: per-node (UPoint|UContext)
// plus bookkeeping the checker and translator need.
type Marks struct {
	View *asg.ViewASG
	Base *asg.BaseASG

	DeleteCause map[*asg.Node]UnsafeCause
	InsertCause map[*asg.Node]UnsafeCause
	// SharedRels, for Rule-3-unsafe inserts, lists the relations whose
	// pre-existence the data-driven step must verify (the CR of the
	// threatened unsafe-delete nodes).
	SharedRels map[*asg.Node]asg.RelSet
	// Hidden lists, per internal node, the values a new instance's rows
	// take in columns a view selection predicate reads but the node does
	// not publish (BookView's book.year > 1990): without them an inserted
	// element would fail the predicate and never appear.
	Hidden map[*asg.Node][]HiddenValue
	// joinCols holds every relation.column a view join predicate reads.
	joinCols map[string]bool
}

// HiddenValue is one column value the translator supplies for a new
// instance; see Marks.Hidden.
type HiddenValue struct {
	Rel, Col string
	Value    relational.Value
}

// MarkViewASG runs the STAR marking procedure (Algorithm 1): Rules 1–3
// set the update context type of every internal node, remaining nodes
// are safe, and the update point type is computed from the closure /
// mapping-closure equivalence.
func MarkViewASG(view *asg.ViewASG, base *asg.BaseASG) *Marks {
	m := &Marks{
		View:        view,
		Base:        base,
		DeleteCause: map[*asg.Node]UnsafeCause{},
		InsertCause: map[*asg.Node]UnsafeCause{},
		SharedRels:  map[*asg.Node]asg.RelSet{},
		Hidden:      map[*asg.Node][]HiddenValue{},
		joinCols:    map[string]bool{},
	}
	internals := view.InternalNodes()
	for _, n := range view.Nodes {
		for _, sp := range n.ScopePreds {
			if sp.IsCorrelation() {
				m.joinCols[sp.Left.Rel+"."+sp.Left.Col] = true
				m.joinCols[sp.Right.Rel+"."+sp.Right.Col] = true
			}
		}
	}

	// Rule 1: '*' edges under an iterating parent require a proper join;
	// otherwise the whole subtree is unsafe for delete and insert.
	for _, n := range view.Nodes {
		if !n.EdgeCard.Repeating() || n.Parent == nil {
			continue
		}
		if len(n.Parent.UCBinding) == 0 {
			// Root-level repetition: instances correspond to distinct
			// binding tuples, no cross-iteration duplication (the paper
			// exempts (vR,vC1) and (vR,vC4) from Rule 1).
			continue
		}
		if !m.properJoin(n) {
			m.markSubtreeUnsafe(n)
		}
	}

	// Rule 2: a delete is unsafe unless some relation in CR(vC) is not
	// referenced (via extend) by any non-descendant node's context.
	for _, vc := range internals {
		if m.DeleteCause[vc] != CauseNone {
			continue
		}
		anchor, ok := m.findDeleteAnchor(vc, internals)
		if !ok {
			m.DeleteCause[vc] = CauseRule2
			continue
		}
		vc.DeleteAnchor = anchor
	}

	// Rule 3: an insert is unsafe when the inserted subtree shares a
	// relation with the current relations of a non-descendant node that
	// is unsafe-delete (the shared part may appear as a side effect).
	for _, vc := range internals {
		if m.InsertCause[vc] != CauseNone {
			continue
		}
		shared := asg.RelSet{}
		for _, other := range internals {
			if other == vc || other.IsDescendantOf(vc) {
				continue
			}
			cr := other.CR()
			if vc.UPBinding.Intersects(cr) && m.DeleteCause[other] != CauseNone {
				for r := range cr {
					if vc.UPBinding.Has(r) {
						shared.Add(r)
					}
				}
			}
		}
		if len(shared) > 0 {
			m.InsertCause[vc] = CauseRule3
			m.SharedRels[vc] = shared
		}
	}

	// Hidden selections: pick the values new instances need, or mark
	// the node unsafe-insert when none satisfies the predicates.
	for _, vc := range internals {
		hidden, ok := hiddenValues(vc)
		m.Hidden[vc] = hidden
		if !ok && m.InsertCause[vc] == CauseNone {
			m.InsertCause[vc] = CauseHidden
		}
	}

	// Fold causes into the (UPoint|UContext) node marks and compute the
	// update point type.
	for _, vc := range internals {
		vc.Marked = true
		vc.UCtx = asg.UContext{
			SafeDelete: m.DeleteCause[vc] == CauseNone,
			SafeInsert: m.InsertCause[vc] == CauseNone,
		}
		cv := asg.ViewClosure(vc)
		cd := base.MappingClosure(cv)
		vc.Clean = cv.Equivalent(cd)
	}
	return m
}

// hiddenValues picks, for every column of vc's own relations that a
// view selection predicate reads but vc's single-valued subtree does not
// publish, a value satisfying those predicates; ok is false when one has
// none.
func hiddenValues(vc *asg.Node) (out []HiddenValue, ok bool) {
	published := map[asg.Ref]bool{}
	var walk func(*asg.Node)
	walk = func(x *asg.Node) {
		for _, c := range x.Children {
			if c.Kind == asg.KindTag {
				published[asg.Ref{Rel: c.RelName, Col: c.ColName}] = true
			} else if c.Kind == asg.KindInternal && !c.EdgeCard.Repeating() {
				walk(c)
			}
		}
	}
	walk(vc)
	conds := map[asg.Ref][]relational.CheckPredicate{}
	for _, sp := range vc.ScopePreds {
		attr, lit, op := sp.Left, sp.Right, sp.Op
		if attr.IsLit {
			attr, lit, op = sp.Right, sp.Left, op.Flip()
		}
		if !sp.IsCorrelation() && vc.CR().Has(attr.Rel) && !published[attr] {
			conds[attr] = append(conds[attr], relational.CheckPredicate{Op: op, Operand: lit.Lit})
		}
	}
	for attr, preds := range conds {
		v, ok := witness(preds)
		if !ok {
			return nil, false
		}
		out = append(out, HiddenValue{Rel: attr.Rel, Col: attr.Col, Value: v})
	}
	return out, true
}

// witness finds a value satisfying every predicate: one of their
// operands, or a numeric operand moved by one.
func witness(preds []relational.CheckPredicate) (relational.Value, bool) {
	for _, p := range preds {
		for _, d := range []int64{0, 1, -1} {
			v := p.Operand
			switch {
			case v.Kind == relational.KindInt:
				v = relational.Int_(v.Int + d)
			case v.Kind == relational.KindFloat:
				v = relational.Float_(v.Float + float64(d))
			case d != 0:
				continue
			}
			holds := true
			for _, q := range preds {
				holds = holds && q.Holds(v)
			}
			if holds {
				return v, true
			}
		}
	}
	return relational.Value{}, false
}

// properJoin implements the proper-Join test of Rule 1 for the incoming
// edge of node n: every relation newly introduced at n (CR) must be
// anchored to the parent scope through an equality chain whose
// already-anchored side is a unique identifier. Anchoring is transitive
// within CR so multi-relation FLWRs joined key-to-key qualify.
func (m *Marks) properJoin(n *asg.Node) bool {
	cr := n.CR()
	if len(cr) == 0 {
		// No new relations: the edge repeats existing bindings only.
		return true
	}
	anchored := n.Parent.UCBinding.Clone()
	progress := true
	for progress {
		progress = false
		for _, jc := range n.EdgeConds {
			// Try both orientations: anchoredRel.uniqueCol = newRel.col.
			for _, o := range [2][4]string{
				{jc.LeftRel, jc.LeftCol, jc.RightRel, jc.RightCol},
				{jc.RightRel, jc.RightCol, jc.LeftRel, jc.LeftCol},
			} {
				aRel, aCol, bRel := o[0], o[1], o[2]
				if !anchored.Has(aRel) || anchored.Has(bRel) || !cr.Has(bRel) {
					continue
				}
				def, ok := m.View.Schema.Table(aRel)
				if !ok || !def.IsKeyColumn(aCol) {
					continue
				}
				anchored.Add(bRel)
				progress = true
			}
		}
	}
	for r := range cr {
		if !anchored.Has(r) {
			return false
		}
	}
	return true
}

// markSubtreeUnsafe applies Rule 1's consequence to n's subtree.
func (m *Marks) markSubtreeUnsafe(n *asg.Node) {
	var walk func(*asg.Node)
	walk = func(x *asg.Node) {
		if x.Kind == asg.KindInternal || x.Kind == asg.KindTag {
			m.DeleteCause[x] = CauseRule1
			m.InsertCause[x] = CauseRule1
		}
		for _, c := range x.Children {
			walk(c)
		}
	}
	walk(n)
}

// findDeleteAnchor searches CR(vc) for a relation R whose extend set
// does not intersect the update context of any non-descendant internal
// node — the witness that a clean extended source exists (Rule 2). It
// prefers the relation owning the most leaves directly under vc so the
// translated delete hits the element's own data.
func (m *Marks) findDeleteAnchor(vc *asg.Node, internals []*asg.Node) (string, bool) {
	cr := vc.CR()
	if len(cr) == 0 {
		return "", false
	}
	var candidates []string
	for _, r := range cr.Names() {
		ext := m.View.Schema.Extend(r)
		clean := true
		for _, other := range internals {
			if other == vc || other.IsDescendantOf(vc) {
				continue
			}
			for e := range ext {
				if other.UCBinding.Has(e) {
					clean = false
					break
				}
			}
			if !clean {
				break
			}
		}
		if clean {
			candidates = append(candidates, r)
		}
	}
	if len(candidates) == 0 {
		return "", false
	}
	best, bestScore := candidates[0], -1
	for _, r := range candidates {
		score := 0
		var walk func(*asg.Node)
		walk = func(x *asg.Node) {
			if x.Kind == asg.KindLeaf && x.RelName == r {
				score++
			}
			for _, c := range x.Children {
				// Do not descend into repeating children: their
				// relations are deleted via cascade, not directly.
				if c.EdgeCard.Repeating() && c != x {
					continue
				}
				walk(c)
			}
		}
		walk(vc)
		if score > bestScore {
			best, bestScore = r, score
		}
	}
	return best, true
}

// Outcome is the STAR classification of Fig. 6.
type Outcome int

const (
	// OutcomeInvalid fails Step 1's local-constraint validation.
	OutcomeInvalid Outcome = iota
	// OutcomeUntranslatable has no correct translation.
	OutcomeUntranslatable
	// OutcomeConditional is translatable provided its Condition holds.
	OutcomeConditional
	// OutcomeUnconditional always has a correct translation.
	OutcomeUnconditional
)

// Condition is the side condition attached to a conditionally
// translatable update (Observations 1 and 2).
type Condition int

const (
	// CondNone attaches to unconditional outcomes.
	CondNone Condition = iota
	// CondMinimization requires translated-update minimization
	// (dirty | safe-delete nodes).
	CondMinimization
	// CondDupConsistency requires duplicate parts of the inserted
	// element to agree (dirty | safe-insert nodes).
	CondDupConsistency
	// CondSharedPartsExist requires the shared sub-elements of a
	// Rule-3-unsafe insert to already exist in the base (verified by
	// the data-driven step; Section 5.1.1's "if the publisher does not
	// exist in the publisher relation before").
	CondSharedPartsExist
)

// StarVerdict is the STAR checking procedure's answer for one operation.
type StarVerdict struct {
	Outcome    Outcome     `json:"outcome"`
	Conditions []Condition `json:"conditions,omitempty"`
	Reason     string      `json:"reason,omitempty"`
}

// CheckDelete applies Observation 1 to a delete on node v.
func (m *Marks) CheckDelete(v *asg.Node) StarVerdict {
	switch v.Kind {
	case asg.KindRoot:
		// Deleting the root is always translatable (Section 5).
		return StarVerdict{Outcome: OutcomeUnconditional, Reason: "root deletion is always translatable"}
	case asg.KindLeaf:
		// A leaf delete sets the value to NULL; NOT NULL and the view's
		// selection predicates were checked in Step 1.
		return m.CheckLeaf(v)
	case asg.KindTag:
		return m.CheckLeaf(v.LeafUnder())
	}
	if m.DeleteCause[v] != CauseNone {
		return StarVerdict{
			Outcome: OutcomeUntranslatable,
			Reason: fmt.Sprintf("node %s <%s> is unsafe-delete (rule %d): deleting it causes a view side effect",
				v.Label(), v.Name, m.DeleteCause[v]),
		}
	}
	if v.Clean {
		return StarVerdict{Outcome: OutcomeUnconditional,
			Reason: fmt.Sprintf("node %s <%s> is (clean | safe-delete)", v.Label(), v.Name)}
	}
	return StarVerdict{
		Outcome:    OutcomeConditional,
		Conditions: []Condition{CondMinimization},
		Reason: fmt.Sprintf("node %s <%s> is (dirty | safe-delete): translation minimization required",
			v.Label(), v.Name),
	}
}

// CheckLeaf applies the checking procedure to an update of a leaf's
// value — a delete (SET NULL) or a replace (UPDATE). The translation
// writes the leaf's column in the rows behind its element's instances,
// so it is side-effect free only when no view join predicate reads the
// column (a new value would move elements between parents) and those
// rows are the element's own: the leaf's relation is the delete anchor
// of its element and the element is safe-delete, so Rule 2 vouches that
// no other element is built from them.
func (m *Marks) CheckLeaf(l *asg.Node) StarVerdict {
	v := l.Parent.Parent
	switch {
	case m.joinCols[l.RelAttr()]:
		return StarVerdict{Outcome: OutcomeUntranslatable,
			Reason: fmt.Sprintf("leaf %s is read by a view join predicate: a new value moves elements between parents", l.RelAttr())}
	case m.DeleteCause[v] != CauseNone:
		return StarVerdict{Outcome: OutcomeUntranslatable,
			Reason: fmt.Sprintf("node %s <%s> is unsafe-delete (rule %d): other view elements share the rows behind its leaf %s",
				v.Label(), v.Name, m.DeleteCause[v], l.RelAttr())}
	case v.Kind != asg.KindInternal || v.DeleteAnchor != l.RelName:
		return StarVerdict{Outcome: OutcomeUntranslatable,
			Reason: fmt.Sprintf("leaf %s is not drawn from the rows node %s <%s> owns (rule 2 anchors it at %q): other instances share them",
				l.RelAttr(), v.Label(), v.Name, v.DeleteAnchor)}
	}
	return StarVerdict{Outcome: OutcomeUnconditional, Reason: "leaf update translates to an UPDATE of the element's own rows"}
}

// CheckInsert applies Observation 2 to an insert of a new instance of
// node v. Rule-3 unsafety is reported as conditional with
// CondSharedPartsExist so the data-driven step can verify it against the
// base data; Rule-1 unsafety is final.
func (m *Marks) CheckInsert(v *asg.Node) StarVerdict {
	if v.Kind == asg.KindLeaf || v.Kind == asg.KindTag {
		return StarVerdict{Outcome: OutcomeUnconditional, Reason: "leaf insertion translates to an UPDATE"}
	}
	switch m.InsertCause[v] {
	case CauseRule1:
		return StarVerdict{
			Outcome: OutcomeUntranslatable,
			Reason: fmt.Sprintf("node %s <%s> is unsafe-insert (rule 1 duplication)",
				v.Label(), v.Name),
		}
	case CauseHidden:
		return StarVerdict{
			Outcome: OutcomeUntranslatable,
			Reason: fmt.Sprintf("node %s <%s> is unsafe-insert: no value satisfies the view's selection on a column it does not publish",
				v.Label(), v.Name),
		}
	case CauseRule3:
		if len(v.CR().Minus(m.SharedRels[v])) == 0 {
			return StarVerdict{
				Outcome: OutcomeUntranslatable,
				Reason: fmt.Sprintf("node %s <%s> is unsafe-insert (rule 3) and every relation it binds is shared: an insert adds no row of its own",
					v.Label(), v.Name),
			}
		}
		conds := []Condition{CondSharedPartsExist}
		if !v.Clean {
			conds = append(conds, CondDupConsistency)
		}
		return StarVerdict{
			Outcome:    OutcomeConditional,
			Conditions: conds,
			Reason: fmt.Sprintf("node %s <%s> is unsafe-insert (rule 3): shared relations %s must already contain the inserted parts",
				v.Label(), v.Name, m.SharedRels[v]),
		}
	}
	if v.Clean {
		return StarVerdict{Outcome: OutcomeUnconditional,
			Reason: fmt.Sprintf("node %s <%s> is (clean | safe-insert)", v.Label(), v.Name)}
	}
	return StarVerdict{
		Outcome:    OutcomeConditional,
		Conditions: []Condition{CondDupConsistency},
		Reason: fmt.Sprintf("node %s <%s> is (dirty | safe-insert): duplication consistency required",
			v.Label(), v.Name),
	}
}

// MarkString renders the (UPoint|UContext) table for debugging and the
// README, mirroring Fig. 8's dashed-box annotations.
func (m *Marks) MarkString() string {
	var b strings.Builder
	for _, vc := range m.View.InternalNodes() {
		point := "dirty"
		if vc.Clean {
			point = "clean"
		}
		fmt.Fprintf(&b, "%s <%s>: (%s | %s)", vc.Label(), vc.Name, point, vc.UCtx)
		if vc.DeleteAnchor != "" {
			fmt.Fprintf(&b, " anchor=%s", vc.DeleteAnchor)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// leafChecksSatisfiable reports whether the conjunction of a user
// predicate and the leaf's check annotations can hold for any value —
// the Step 1 "overlap" test for deletes (update u5).
func leafChecksSatisfiable(userOp relational.CompareOp, userLit relational.Value, checks []relational.CheckPredicate) bool {
	preds := append([]relational.CheckPredicate{{Op: userOp, Operand: userLit}}, checks...)
	return checkConjunctionSatisfiable(preds)
}
