package plan

import (
	"repro/internal/asg"
	"repro/internal/relational"
	"repro/internal/sqlexec"
	"repro/internal/viewengine"
	"repro/internal/xmltree"
	"repro/internal/xqparse"
)

// BlindResult reports the baseline "translate without checking"
// execution used by the Fig. 14 experiment.
type BlindResult struct {
	SideEffect  bool
	RowsTouched int
	RolledBack  bool
	ViewNodes   int // size of the materialized view (comparison cost)
}

// BlindApply is the paper's strawman: translate the update directly
// (no STAR check), execute it, detect view side effects by comparing
// the materialized view before and after (as SQL-Server does, per the
// paper), and roll back when a side effect is found. It is deliberately
// expensive — this is the baseline U-Filter avoids. Like every other
// mutating entry point it runs in its own transaction (the before
// image reads the transaction's pinned snapshot, the after image reads
// the transaction's uncommitted writes); unlike Apply it does NOT
// retry on write-write conflicts — the baseline measures one blind
// attempt.
func (e *Executor) BlindApply(updateText string) (*BlindResult, error) {
	u, err := xqparse.ParseUpdate(updateText)
	if err != nil {
		return nil, err
	}
	r, err := Resolve(u, e.View)
	if err != nil {
		return nil, err
	}

	ac := &applyCtx{txn: e.Exec.DB.BeginTxn(), bound: bound{preds: r.UserPreds}}
	txn := ac.txn
	// The engine reads through the transaction: the before image sees
	// the snapshot pinned at Begin, the after image additionally sees
	// the transaction's own uncommitted statements — exactly the diff
	// the blind baseline needs.
	eng := &viewengine.Engine{Exec: e.Exec, Rd: txn}
	before, err := eng.Materialize(e.View.Query)
	if err != nil {
		txn.Rollback()
		return nil, err
	}
	res := &BlindResult{ViewNodes: before.Count()}

	dummy := &Result{}
	touched := 0
	for i := range r.Ops {
		ro := &r.Ops[i]
		probe, tempName, reject, err := e.contextCheck(ac, ro, nil, nil, dummy)
		if err != nil {
			txn.Rollback()
			return nil, err
		}
		if tempName != "" {
			defer e.Exec.DropTemp(tempName)
		}
		if reject != "" {
			continue
		}
		tr, err := e.blindTranslate(ac, ro, probe, tempName)
		if err != nil {
			txn.Rollback()
			return nil, err
		}
		for _, st := range tr.Statements {
			switch s := st.(type) {
			case *sqlexec.InsertStmt:
				if _, err := e.Exec.ExecInsert(txn, s); err == nil {
					touched++
				}
			case *sqlexec.DeleteStmt:
				n, _ := e.Exec.ExecDelete(txn, s)
				touched += n
			case *sqlexec.UpdateStmt:
				n, _ := e.Exec.ExecUpdate(txn, s)
				touched += n
			}
		}
	}
	res.RowsTouched = touched

	after, err := eng.Materialize(e.View.Query)
	if err != nil {
		txn.Rollback()
		return nil, err
	}
	// Side-effect detection: elements other than the update's own
	// targets must be unchanged. Comparing per-tag element populations
	// is the cheap-but-honest equivalent of the paper's view diff.
	res.SideEffect = detectSideEffect(r, before, after)
	if res.SideEffect {
		if err := txn.Rollback(); err != nil {
			return nil, err
		}
		res.RolledBack = true
	} else if err := txn.Commit(); err != nil {
		return nil, err
	}
	return res, nil
}

// blindTranslate mirrors translateDelete/translateInsert but without
// the safety net: unsafe deletes fall back to deleting the relation
// that owns the element's direct content — exactly the naive
// translation whose side effects the baseline then has to discover.
func (e *Executor) blindTranslate(ac *applyCtx, ro *ResolvedOp, probe *sqlexec.ResultSet, tempName string) (*opTranslation, error) {
	if ro.Op.Kind == xqparse.OpDelete && ro.Target.Kind == asg.KindInternal && ro.Target.DeleteAnchor == "" {
		// Pick the relation owning most of the element's direct leaves.
		counts := map[string]int{}
		for _, c := range ro.Target.Children {
			if c.Kind == asg.KindTag && c.RelName != "" {
				counts[c.RelName]++
			}
		}
		best, bestN := "", -1
		for r, n := range counts {
			if n > bestN {
				best, bestN = r, n
			}
		}
		if best == "" {
			cr := ro.Target.CR().Names()
			if len(cr) > 0 {
				best = cr[0]
			} else {
				best = ro.Target.UPBinding.Names()[0]
			}
		}
		// Carry the naive anchor in the per-apply context: the shared
		// view-ASG node is read lock-free by concurrent applies and plan
		// compilations, so it must never be mutated here.
		ac.blindAnchor = best
		defer func() { ac.blindAnchor = "" }()
		return e.translateDelete(ac, ro, probe, tempName, nil)
	}
	switch ro.Op.Kind {
	case xqparse.OpDelete:
		return e.translateDelete(ac, ro, probe, tempName, nil)
	case xqparse.OpInsert:
		return e.translateInsert(ro, probe)
	default:
		return e.translateReplace(ac, ro, probe, nil, nil)
	}
}

// detectSideEffect builds the expected view — the before-image with
// exactly the update's own target instances removed — and compares it
// against the actual after-image, the paper's "compare the view before
// the update and after the update" baseline check. Any difference
// beyond the intended edit is a side effect.
func detectSideEffect(r *ResolvedUpdate, before, after *xmltree.Node) bool {
	expected := before.Clone()
	for i := range r.Ops {
		ro := &r.Ops[i]
		switch ro.Op.Kind {
		case xqparse.OpDelete:
			target := ro.Target
			if target.Kind == asg.KindLeaf {
				target = target.Parent
			}
			RemoveMatchingInstances(expected, target, r.UserPreds)
		case xqparse.OpInsert:
			// The inserted instance should appear under each matching
			// context; append a copy so a correct insert diffs clean.
			for _, ctx := range InstancesOf(expected, ro.Context) {
				if MatchesPreds(ctx, ro.Context, r.UserPreds) {
					ctx.Append(ro.Op.Content.Clone())
				}
			}
		}
	}
	return !expected.Equal(after)
}

// pathFromRoot lists the tag names from the view root down to n.
func pathFromRoot(n *asg.Node) []string {
	var rev []string
	for cur := n; cur != nil && cur.Kind != asg.KindRoot; cur = cur.Parent {
		rev = append(rev, cur.Name)
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// InstancesOf returns the XML instances of a view ASG node in a
// materialized document.
func InstancesOf(doc *xmltree.Node, n *asg.Node) []*xmltree.Node {
	path := pathFromRoot(n)
	if len(path) == 0 {
		return []*xmltree.Node{doc}
	}
	return doc.FindAll(path...)
}

// predWithin reports whether the predicate's leaf lies in the subtree
// of the given node.
func predWithin(up UserPred, node *asg.Node) bool {
	for cur := up.Leaf.Parent; cur != nil; cur = cur.Parent {
		if cur == node {
			return true
		}
	}
	return false
}

// MatchesPreds evaluates the user predicates that live inside the given
// node's subtree against one instance. Predicates anchored elsewhere
// are treated as matching (conservative).
func MatchesPreds(inst *xmltree.Node, node *asg.Node, preds []UserPred) bool {
	for _, up := range preds {
		// Relative path from node down to the predicate's tag.
		var rev []string
		cur := up.Leaf.Parent
		for ; cur != nil && cur != node; cur = cur.Parent {
			rev = append(rev, cur.Name)
		}
		if cur != node {
			continue // predicate anchored outside this subtree
		}
		path := make([]string, len(rev))
		for i := range rev {
			path[i] = rev[len(rev)-1-i]
		}
		tag := inst
		if len(path) > 0 {
			tag = inst.Find(path...)
		}
		if tag == nil {
			return false
		}
		v, err := relational.String_(tag.TextContent()).CoerceTo(up.Leaf.Type)
		if err != nil {
			return false
		}
		if !up.Op.Apply(v, up.Lit) {
			return false
		}
	}
	return true
}

// RemoveMatchingInstances deletes from the document every instance of
// the target node whose subtree satisfies the user predicates.
func RemoveMatchingInstances(doc *xmltree.Node, target *asg.Node, preds []UserPred) {
	path := pathFromRoot(target)
	if len(path) == 0 {
		return
	}
	parents := []*xmltree.Node{doc}
	if len(path) > 1 {
		parents = doc.FindAll(path[:len(path)-1]...)
	}
	tag := path[len(path)-1]
	// Predicates anchored inside the target evaluate per instance;
	// those anchored higher filter the parent instances.
	var parentPreds []UserPred
	if target.Parent != nil {
		for _, up := range preds {
			if predWithin(up, target.Parent) && !predWithin(up, target) {
				parentPreds = append(parentPreds, up)
			}
		}
	}
	for _, p := range parents {
		if target.Parent != nil && !MatchesPreds(p, target.Parent, parentPreds) {
			continue
		}
		for _, inst := range p.ChildrenNamed(tag) {
			if MatchesPreds(inst, target, preds) {
				p.RemoveChild(inst)
			}
		}
	}
}
