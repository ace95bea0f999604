package ufilter

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/asg"
	"repro/internal/relational"
	"repro/internal/xmltree"
	"repro/internal/xqparse"
)

// validationError is a Step 1 rejection with its reason.
type validationError struct{ msg string }

func (e *validationError) Error() string { return e.msg }

func invalidf(format string, args ...interface{}) error {
	return &validationError{msg: fmt.Sprintf(format, args...)}
}

// Step 1, update validation (Section 4): the update must agree with
// every local constraint captured in the view ASG. Its checks split by
// what they read. The overlap test (validatePreds) reads the predicate
// literals and the leaf annotations (leafValue) read the content values,
// so both run per bound instance; everything else reads the template
// only — targets, cardinalities, the fragment's element structure — and
// runs once at compile time (templateOps), which also lays out the
// template's content slots in the order validation visits them.

// ContentSlot describes one content slot of an update template: a leaf
// element of an INSERT/REPLACE fragment. Its text is the value an
// instance supplies, checked against the leaf's annotations (type, NOT
// NULL, CHECKs) when the instance is bound. Slots are ordered as Step 1
// visits them: by operation, then in document order.
type ContentSlot struct {
	// Leaf is the view leaf the value lands in.
	Leaf *asg.Node
	// Op indexes the content-bearing operation.
	Op int
	// path locates the slot's element inside the op's fragment, as
	// element-child ordinals from the fragment root (empty: the root).
	path []int
	// ordinal numbers the slot's element among the leaf elements of the
	// template's fragments in document order — the order
	// xqparse.ScanUpdate reports their texts in; -1 when the element has
	// element children.
	ordinal int
}

// element finds the slot's element in an instance of the template. The
// template key keeps the fragments' element structure, so the path
// exists in every instance.
func (s ContentSlot) element(u *xqparse.UpdateQuery) *xmltree.Node {
	frag := u.Ops[s.Op].Content
	for _, k := range s.path {
		for _, c := range frag.Children {
			if !c.IsElement() {
				continue
			}
			if k == 0 {
				frag = c
				break
			}
			k--
		}
	}
	return frag
}

// numberLeaves sets each slot's ordinal from the template u and reports
// whether every slot's element is a leaf.
func numberLeaves(u *xqparse.UpdateQuery, slots []ContentSlot) bool {
	var leaves []*xmltree.Node
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if kids := n.ElementChildren(); len(kids) > 0 {
			for _, c := range kids {
				walk(c)
			}
		} else {
			leaves = append(leaves, n)
		}
	}
	for _, op := range u.Ops {
		if op.Content != nil {
			walk(op.Content)
		}
	}
	all := true
	for i := range slots {
		slots[i].ordinal = slices.Index(leaves, slots[i].element(u))
		all = all && slots[i].ordinal >= 0
	}
	return all
}

// validatePreds is the overlap check (delete check (i), but applied to
// every update's predicates): a user predicate that contradicts the
// view's check annotations selects nothing that exists in the view.
func validatePreds(preds []UserPred) error {
	for _, up := range preds {
		if len(up.Leaf.Checks) == 0 {
			continue
		}
		if !leafChecksSatisfiable(up.Op, up.Lit, up.Leaf.Checks) {
			return invalidf("predicate %q cannot overlap the view content (view restricts %s by %s)",
				up.String(), up.Leaf.RelAttr(), renderChecks(up.Leaf.Checks))
		}
	}
	return nil
}

// slotWalk runs the template-level checks of content-bearing operations
// and collects the content slots they pass on the way.
type slotWalk struct {
	op    int
	slots []ContentSlot
}

func (w *slotWalk) emit(leaf *asg.Node, path []int) {
	w.slots = append(w.slots, ContentSlot{Leaf: leaf, Op: w.op, path: append([]int(nil), path...)})
}

// templateOps runs the per-operation checks that read only the update
// template and returns the template's content slots. On a rejection the
// slots are those Step 1 visits before it: an instance is checked
// against them first, so the first failure in validation order wins.
func templateOps(r *ResolvedUpdate) ([]ContentSlot, error) {
	var w slotWalk
	for i := range r.Ops {
		ro := &r.Ops[i]
		w.op = i
		var err error
		switch ro.Op.Kind {
		case xqparse.OpDelete:
			err = validateDelete(ro)
		case xqparse.OpInsert:
			err = w.insert(ro)
		case xqparse.OpReplace:
			err = w.replace(ro)
		}
		if err != nil {
			return w.slots, err
		}
	}
	return w.slots, nil
}

func renderChecks(checks []relational.CheckPredicate) string {
	parts := make([]string, len(checks))
	for i, c := range checks {
		parts[i] = c.String()
	}
	return strings.Join(parts, " AND ")
}

// validateDelete implements delete check (ii): a leaf or tag node whose
// incoming edge is "1" (NOT NULL attribute) cannot be deleted (u6), nor
// can one a view selection predicate reads — the NULL a leaf delete
// translates to fails the predicate and takes the whole element out of
// the view. Internal-node deletes pass Step 1 and are judged by STAR.
func validateDelete(ro *ResolvedOp) error {
	t := ro.Target
	var leaf *asg.Node
	var what string
	switch t.Kind {
	case asg.KindTag:
		leaf, what = t.LeafUnder(), "<"+t.Name+">"
	case asg.KindLeaf:
		leaf, what = t, "text of <"+t.Parent.Name+">"
	}
	switch {
	case leaf == nil:
		return nil
	case leaf.NotNull || leaf.EdgeCard == asg.CardOne:
		return invalidf("cannot delete %s: %s is NOT NULL (incoming edge cardinality 1)", what, leaf.RelAttr())
	case leaf.Selected:
		return invalidf("cannot delete %s: %s", what, selectsOn(leaf))
	}
	return nil
}

// selectsOn names the view selection predicate a NULL leaf fails.
func selectsOn(leaf *asg.Node) string {
	return fmt.Sprintf("the view selects on %s (%s), which NULL fails", leaf.RelAttr(), renderChecks(leaf.Checks))
}

// insert implements the template half of the insert checks of Section
// 4: hierarchy conformance (u7's missing mandatory publisher). The value
// half — domain/type, check annotations and NOT NULL (u1's empty title
// and non-positive price) — is leafValue over the slots collected here.
func (w *slotWalk) insert(ro *ResolvedOp) error {
	if ro.Target.EdgeCard == asg.CardOne {
		return invalidf("cannot insert another <%s> under <%s>: edge cardinality is 1 (exactly one)",
			ro.Target.Name, ro.Context.Name)
	}
	return w.fragment(ro.Op.Content, ro.Target, nil)
}

// fragment recursively checks an inserted element's structure against
// its schema node; path is the element's own path from the fragment
// root.
func (w *slotWalk) fragment(frag *xmltree.Node, node *asg.Node, path []int) error {
	// Hierarchy: every element present must be known, and elements with
	// a mandatory edge must be present exactly once.
	counts := map[string]int{}
	for k, c := range frag.ElementChildren() {
		child := node.FindChild(c.Name)
		if child == nil {
			return invalidf("element <%s> cannot occur under <%s> in the view schema", c.Name, node.Name)
		}
		if child.Kind == asg.KindInternal && child.EdgeCard.Repeating() {
			return invalidf("element <%s> cannot be inserted inside a new <%s>: repeated elements are inserted on their own", c.Name, node.Name)
		}
		counts[strings.ToLower(c.Name)]++
		switch child.Kind {
		case asg.KindInternal:
			if err := w.fragment(c, child, append(path, k)); err != nil {
				return err
			}
		case asg.KindTag:
			if leaf := child.LeafUnder(); leaf != nil {
				w.emit(leaf, append(path, k))
			}
		}
	}
	for _, child := range node.Children {
		lower := strings.ToLower(child.Name)
		n := counts[lower]
		required := false
		switch child.Kind {
		case asg.KindInternal:
			required = child.EdgeCard == asg.CardOne || child.EdgeCard == asg.CardPlus
			if child.EdgeCard == asg.CardOne && n > 1 {
				return invalidf("element <%s> must occur exactly once under <%s>, found %d", child.Name, node.Name, n)
			}
		case asg.KindTag:
			leaf := child.LeafUnder()
			required = leaf != nil && leaf.NotNull
			if n > 1 {
				return invalidf("element <%s> must occur at most once under <%s>, found %d", child.Name, node.Name, n)
			}
			if n == 0 && leaf != nil && leaf.Selected {
				return invalidf("element <%s> requires a <%s> child: %s", node.Name, child.Name, selectsOn(leaf))
			}
		default:
			continue
		}
		if required && n == 0 {
			return invalidf("element <%s> requires a <%s> child (edge cardinality 1)", node.Name, child.Name)
		}
	}
	return nil
}

// coerceLeaf maps a content value into its leaf's domain; empty text is
// NULL, Oracle-style.
func coerceLeaf(raw string, leaf *asg.Node) (relational.Value, error) {
	if raw == "" {
		return relational.Null(), nil
	}
	v, err := relational.String_(raw).CoerceTo(leaf.Type)
	if err != nil {
		return v, invalidf("value %q of <%s> is not in the domain of %s (%s)",
			raw, leaf.Parent.Name, leaf.RelAttr(), leaf.Type)
	}
	return v, nil
}

// leafValue enforces the leaf annotations on one content value — NOT
// NULL (and non-empty where a view selection predicate reads the leaf),
// domain/type, and check predicates — and returns it coerced.
func leafValue(raw string, leaf *asg.Node) (relational.Value, error) {
	if raw == "" && leaf.NotNull {
		return relational.Null(), invalidf("value of <%s> cannot be empty: %s is NOT NULL", leaf.Parent.Name, leaf.RelAttr())
	}
	v, err := coerceLeaf(raw, leaf)
	switch {
	case err != nil:
		return v, err
	case v.IsNull() && leaf.Selected:
		return v, invalidf("value of <%s> cannot be empty: %s", leaf.Parent.Name, selectsOn(leaf))
	case v.IsNull():
		return v, nil
	}
	for _, chk := range leaf.Checks {
		if !chk.Holds(v) {
			return v, invalidf("value %q of <%s> violates the check constraint on %s (%s)",
				raw, leaf.Parent.Name, leaf.RelAttr(), chk)
		}
	}
	return v, nil
}

// replace treats replace as delete-then-insert of the same element
// (footnote 4): the new content must carry the target's tag and fit its
// structure; mandatory elements may be replaced (the value changes, the
// element stays).
func (w *slotWalk) replace(ro *ResolvedOp) error {
	t := ro.Target
	content := ro.Op.Content
	if t.Kind != asg.KindLeaf && !strings.EqualFold(content.Name, t.Name) {
		return invalidf("REPLACE of <%s> must supply a <%s> element, got <%s>", t.Name, t.Name, content.Name)
	}
	if t.Kind == asg.KindInternal {
		return w.fragment(content, t, nil)
	}
	if leaf := replaceLeafOf(t); leaf != nil {
		w.emit(leaf, nil)
	}
	return nil
}
