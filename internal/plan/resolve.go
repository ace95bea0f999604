package plan

import (
	"fmt"
	"strings"

	"repro/internal/asg"
	"repro/internal/relational"
	"repro/internal/xqparse"
)

// UserPred is a user-update predicate compiled against the view ASG: a
// leaf attribute compared to a literal.
type UserPred struct {
	Leaf *asg.Node
	Op   relational.CompareOp
	Lit  relational.Value
}

// String renders the predicate over the leaf's relational attribute.
func (p UserPred) String() string {
	return fmt.Sprintf("%s %s %s", p.Leaf.RelAttr(), p.Op, p.Lit)
}

// ResolvedOp is one update operation bound to view ASG nodes.
type ResolvedOp struct {
	Op xqparse.UpdateOp
	// Context is the node the operation is anchored at: the node bound
	// to the op's path variable (deletes/replaces) or the update target
	// (inserts).
	Context *asg.Node
	// Target is the node being deleted/replaced, or the schema node an
	// inserted fragment instantiates.
	Target *asg.Node
	// Anchor is the relation whose rows a delete (or a replace's delete
	// half) of an internal Target removes: STAR's Target.DeleteAnchor,
	// or in BlindApply's private plan the naive pick for a target STAR
	// found none for. Empty for an unsafe delete.
	Anchor string
}

// ResolvedUpdate is a parsed update bound to the view's ASG.
type ResolvedUpdate struct {
	Query     *xqparse.UpdateQuery
	VarNodes  map[string]*asg.Node
	UserPreds []UserPred
	Ops       []ResolvedOp
}

// resolveError marks a resolution failure that Step 1 reports as
// invalid (the update references elements outside the view schema).
type resolveError struct{ msg string }

func (e *resolveError) Error() string { return e.msg }

func resolveErrf(format string, args ...interface{}) error {
	return &resolveError{msg: fmt.Sprintf(format, args...)}
}

// Resolve binds an update query's variables, predicates and operations
// to nodes of the view ASG.
func Resolve(u *xqparse.UpdateQuery, view *asg.ViewASG) (*ResolvedUpdate, error) {
	r, litErr, err := resolve(u, view)
	if litErr != nil {
		return nil, litErr
	}
	return r, err
}

// resolve is Resolve with the two kinds of failure told apart. err is
// structural: the template names something outside the view schema, so
// no instance of it resolves. litErr is the first predicate literal that
// does not fit its leaf's domain, met before any structural failure: it
// rejects this instance only, so resolution carries on past it (the
// predicate keeps its literal uncoerced) and a template compiled from
// such an exemplar still serves the instances whose literals fit.
func resolve(u *xqparse.UpdateQuery, view *asg.ViewASG) (r *ResolvedUpdate, litErr, err error) {
	r = &ResolvedUpdate{Query: u, VarNodes: map[string]*asg.Node{}}
	for _, b := range u.Bindings {
		var base *asg.Node
		var steps []string
		if b.Source.Doc != "" {
			base = view.Root
			steps = b.Source.Steps
		} else {
			parent, ok := r.VarNodes[b.Source.Var]
			if !ok {
				return nil, nil, resolveErrf("unbound variable $%s in binding of $%s", b.Source.Var, b.Var)
			}
			base = parent
			steps = b.Source.Steps
		}
		node := base.ResolvePath(steps)
		if node == nil {
			return nil, nil, resolveErrf("binding $%s: path /%s does not exist in the view schema",
				b.Var, strings.Join(steps, "/"))
		}
		r.VarNodes[b.Var] = node
	}

	for _, p := range u.Preds {
		up, err := r.compilePred(p)
		if err != nil {
			return nil, litErr, err
		}
		if err := up.coerce(); err != nil && litErr == nil {
			litErr = err
		}
		r.UserPreds = append(r.UserPreds, up)
	}

	target, ok := r.VarNodes[u.TargetVar]
	if !ok {
		return nil, litErr, resolveErrf("update target $%s is not bound", u.TargetVar)
	}
	for _, op := range u.Ops {
		ro := ResolvedOp{Op: op}
		switch op.Kind {
		case xqparse.OpDelete, xqparse.OpReplace:
			ctx, ok := r.VarNodes[op.PathVar]
			if !ok {
				return nil, litErr, resolveErrf("%s references unbound variable $%s", op.Kind, op.PathVar)
			}
			ro.Context = ctx
			t := ctx.ResolvePath(op.Path)
			if t == nil {
				return nil, litErr, resolveErrf("%s $%s/%s: no such element in the view schema",
					op.Kind, op.PathVar, strings.Join(op.Path, "/"))
			}
			if op.TextOnly {
				leaf := t.LeafUnder()
				if leaf == nil {
					return nil, litErr, resolveErrf("%s $%s/%s/text(): element has no text node",
						op.Kind, op.PathVar, strings.Join(op.Path, "/"))
				}
				t = leaf
			}
			ro.Target, ro.Anchor = t, t.DeleteAnchor
		case xqparse.OpInsert:
			ro.Context = target
			child := target.FindChild(op.Content.Name)
			if child == nil {
				return nil, litErr, resolveErrf("INSERT <%s>: element <%s> cannot occur under <%s> in the view schema",
					op.Content.Name, op.Content.Name, target.Name)
			}
			ro.Target = child
		}
		r.Ops = append(r.Ops, ro)
	}
	return r, litErr, nil
}

// compilePred binds one user predicate to a view leaf, leaving its
// literal as written (see coerce). The literal may be on either side;
// correlation predicates in user updates are not supported (the paper's
// update corpus has none).
func (r *ResolvedUpdate) compilePred(p xqparse.Pred) (UserPred, error) {
	path, lit, op := p.Left, p.Right, p.Op
	if path.IsLiteral {
		path, lit, op = p.Right, p.Left, p.Op.Flip()
	}
	if path.IsLiteral || !lit.IsLiteral {
		return UserPred{}, resolveErrf("unsupported predicate %s: exactly one side must be a literal", p)
	}
	node, ok := r.VarNodes[path.Var]
	if !ok {
		return UserPred{}, resolveErrf("unbound variable $%s in predicate", path.Var)
	}
	var steps []string
	if path.Field != "" {
		steps = strings.Split(path.Field, "/")
	}
	tag := node.ResolvePath(steps)
	if tag == nil {
		return UserPred{}, resolveErrf("predicate path $%s/%s not in the view schema", path.Var, path.Field)
	}
	leaf := tag
	if tag.Kind != asg.KindLeaf {
		leaf = tag.LeafUnder()
	}
	if leaf == nil || leaf.Kind != asg.KindLeaf {
		return UserPred{}, resolveErrf("predicate path $%s/%s does not reach an atomic value", path.Var, path.Field)
	}
	return UserPred{Leaf: leaf, Op: op, Lit: lit.Lit}, nil
}

// coerce maps the predicate's literal into its leaf's domain.
func (p *UserPred) coerce() error {
	v, err := p.Lit.CoerceTo(p.Leaf.Type)
	if err != nil {
		return resolveErrf("predicate literal %s does not match the type of %s: %v", p.Lit, p.Leaf.RelAttr(), err)
	}
	p.Lit = v
	return nil
}
