package plan

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"repro/internal/asg"
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
// the materialized view after the update with the view the update asks
// for (as SQL-Server does, per the paper), and roll back when a side
// effect is found. It is deliberately expensive — this is the baseline
// U-Filter avoids. The translation comes from a private plan of the
// update, bound without consulting its verdict; a delete STAR found no
// clean anchor for deletes from a naive one instead. Like every other
// mutating entry point it runs in its own transaction (the before image
// reads the transaction's pinned snapshot, the after image reads the
// transaction's uncommitted writes); unlike Apply it does NOT retry on
// write-write conflicts — the baseline measures one blind attempt. An
// update Step 1 rejects has no translation and returns an error.
func (e *Executor) BlindApply(updateText string) (*BlindResult, error) {
	u, err := xqparse.ParseUpdate(updateText)
	if err != nil {
		return nil, err
	}
	p, err := e.Compile(u)
	if err != nil {
		return nil, err
	}
	if p.Verdict.RejectedAt == StepValidation {
		return nil, fmt.Errorf("plan: no blind translation of an invalid update: %s", p.Verdict.Reason)
	}
	_, b, err := p.derive(p.BindArgs(u), p.exemplar)
	if err != nil {
		return nil, err
	}
	if !p.star.Accepted {
		// STAR rejected the template, so Compile skipped the artifacts.
		for i := range p.Resolved.Ops {
			if ro := &p.Resolved.Ops[i]; ro.Target.Kind == asg.KindInternal && ro.Anchor == "" && ro.Op.Kind != xqparse.OpInsert {
				ro.Anchor = naiveAnchor(ro.Target)
			}
		}
		if err := e.compileArtifacts(p); err != nil {
			return nil, err
		}
	}

	txn := e.Exec.DB.BeginTxn()
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

	ac := &applyCtx{txn: txn, bound: b}
	args := probeArgs(b.preds)
	tally := &Result{}
	for i := range p.Resolved.Ops {
		ro, po := &p.Resolved.Ops[i], &p.Ops[i]
		probe, tempName, reject, err := e.contextCheck(ac, ro, po, args, tally)
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
		tr, err := e.translateOp(ac, ro, po, probe, tempName, tally)
		if err != nil {
			txn.Rollback()
			return nil, err
		}
		// A statement the engine refuses is skipped, not a verdict: the
		// view diff below decides.
		for _, st := range tr.Statements {
			if _, err := e.execStatement(ac, st, tally); err != nil {
				txn.Rollback()
				return nil, err
			}
		}
	}
	res.RowsTouched = tally.RowsAffected

	after, err := eng.Materialize(e.View.Query)
	if err != nil {
		txn.Rollback()
		return nil, err
	}
	res.SideEffect = !sameView(ExpectedView(before, p.Resolved), after)
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

// naiveAnchor is the blind baseline's delete anchor for a target STAR
// found no clean one for: the relation owning most of the element's
// direct leaves — exactly the naive translation whose side effects the
// baseline then has to discover.
func naiveAnchor(t *asg.Node) string {
	counts := map[string]int{}
	best := ""
	for _, c := range t.Children {
		if c.Kind == asg.KindTag && c.RelName != "" {
			if counts[c.RelName]++; counts[c.RelName] > counts[best] {
				best = c.RelName
			}
		}
	}
	if best != "" {
		return best
	}
	if cr := t.CR().Names(); len(cr) > 0 {
		return cr[0]
	}
	return t.UPBinding.Names()[0]
}

// ExpectedView returns the view an update asks for — Definition 1's
// u(DEF_V(D)): before with exactly the update's own edits applied. The
// update's FOR and WHERE clauses are evaluated over before; for every
// binding that satisfies them, a delete removes the targeted instances
// (a leaf or tag delete empties the element, which is how the view
// renders the NULL it translates to), a replace swaps in the new value
// or the new instance, and an insert adds an instance of its fragment
// under the context. r is the update's own resolution, its literals
// coerced. BlindApply's side-effect check and the verdict oracle both
// diff the re-derived view against this.
func ExpectedView(before *xmltree.Node, r *ResolvedUpdate) *xmltree.Node {
	doc := before.Clone()
	parent := map[*xmltree.Node]*xmltree.Node{}
	var index func(*xmltree.Node)
	index = func(n *xmltree.Node) {
		for _, c := range n.Children {
			parent[c] = n
			index(c)
		}
	}
	index(doc)

	u := r.Query
	removed := map[*xmltree.Node]bool{}
	type addition struct {
		under *xmltree.Node
		op    int
	}
	var adds []addition
	added := map[addition]bool{}
	add := func(under *xmltree.Node, op int) {
		if a := (addition{under, op}); under != nil && !added[a] {
			added[a] = true
			adds = append(adds, a)
		}
	}
	edit := func(env map[string]*xmltree.Node) {
		for i := range r.Ops {
			ro := &r.Ops[i]
			ctx, path := env[ro.Op.PathVar], ro.Op.Path
			switch {
			case ro.Op.Kind == xqparse.OpInsert:
				add(env[u.TargetVar], i)
			case ro.Target.Kind != asg.KindInternal:
				for _, tag := range ctx.FindAll(path...) {
					tag.Children = nil
					if ro.Op.Kind == xqparse.OpReplace {
						tag.Children = viewLeaf(replaceLeafOf(ro.Target), ro.Op.Content.TextContent()).Children
					}
				}
			case len(path) == 0:
				removed[ctx] = true
				if ro.Op.Kind == xqparse.OpReplace {
					add(parent[ctx], i)
				}
			default:
				for _, under := range ctx.FindAll(path[:len(path)-1]...) {
					for _, inst := range under.ChildrenNamed(path[len(path)-1]) {
						removed[inst] = true
					}
					if ro.Op.Kind == xqparse.OpReplace {
						add(under, i)
					}
				}
			}
		}
	}

	// Enumerate the FOR clause's binding tuples, keeping those the
	// WHERE clause accepts, before editing anything.
	var matches []map[string]*xmltree.Node
	env := map[string]*xmltree.Node{}
	var bind func(i int)
	bind = func(i int) {
		if i == len(u.Bindings) {
			if satisfies(env, u, r.UserPreds) {
				matches = append(matches, maps.Clone(env))
			}
			return
		}
		b := u.Bindings[i]
		from := doc
		if b.Source.Doc == "" {
			from = env[b.Source.Var]
		}
		for _, n := range from.FindAll(b.Source.Steps...) {
			env[b.Var] = n
			bind(i + 1)
		}
		delete(env, b.Var)
	}
	bind(0)
	for _, env := range matches {
		edit(env)
	}
	for n := range removed {
		parent[n].RemoveChild(n)
	}
	for _, a := range adds {
		ro := &r.Ops[a.op]
		a.under.Append(viewInstance(ro.Target, ro.Op.Content))
	}
	return doc
}

// satisfies evaluates the WHERE clause over one binding tuple: each
// predicate holds when some element its path reaches carries a value
// that compares true (an empty element is NULL, which compares false).
func satisfies(env map[string]*xmltree.Node, u *xqparse.UpdateQuery, preds []UserPred) bool {
	for i, p := range u.Preds {
		path := p.Left
		if path.IsLiteral {
			path = p.Right
		}
		var steps []string
		if path.Field != "" {
			steps = strings.Split(path.Field, "/")
		}
		up, ok := preds[i], false
		for _, n := range env[path.Var].FindAll(steps...) {
			v, err := coerceLeaf(n.TextContent(), up.Leaf)
			if ok = err == nil && !v.IsNull() && up.Op.Apply(v, up.Lit); ok {
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// viewInstance renders an inserted fragment as the view publishes an
// instance of n: n's children in schema order, each leaf's value in its
// column's domain (an absent or empty leaf is an empty element).
func viewInstance(n *asg.Node, frag *xmltree.Node) *xmltree.Node {
	out := xmltree.Elem(n.Name)
	for _, c := range n.Children {
		parts := frag.ChildrenNamed(c.Name)
		switch c.Kind {
		case asg.KindTag:
			raw := ""
			if len(parts) > 0 {
				raw = parts[0].TextContent()
			}
			out.Append(viewLeaf(c.LeafUnder(), raw))
		case asg.KindInternal:
			for _, part := range parts {
				out.Append(viewInstance(c, part))
			}
		}
	}
	return out
}

// viewLeaf renders a leaf value the way the view engine does; the
// value is one Step 1 accepted, so it coerces.
func viewLeaf(leaf *asg.Node, raw string) *xmltree.Node {
	tag := xmltree.Elem(leaf.Parent.Name)
	if v, _ := coerceLeaf(raw, leaf); !v.IsNull() {
		tag.Append(xmltree.Text(v.String()))
	}
	return tag
}

// sameView compares two views up to the order of sibling elements: the
// view engine emits repeated elements in join order, which no update
// promises to keep.
func sameView(a, b *xmltree.Node) bool { return viewKey(a) == viewKey(b) }

func viewKey(n *xmltree.Node) string {
	if !n.IsElement() {
		return strings.TrimSpace(n.Text)
	}
	keys := make([]string, 0, len(n.Children))
	for _, c := range n.Children {
		if k := viewKey(c); k != "" || c.IsElement() {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return "<" + n.Name + ">" + strings.Join(keys, "") + "</" + n.Name + ">"
}
