package sqlexec

import (
	"fmt"
	"strings"

	"repro/internal/relational"
)

// Prepared statements: the compile-once/execute-many API used by the
// plan layer. A statement template carries ParamOperand placeholders in
// its WHERE clause; Prepare validates the placeholders once, and each
// Bind produces an executable statement by substituting a bound
// argument tuple — the template itself is never mutated, so one
// prepared statement may be bound concurrently by many executions.

// Stmt is a prepared statement: an immutable statement template plus
// the executor it was prepared against. SELECT templates carry their
// compiled join program (select.go) — steps in join order, predicates
// and keys addressed by position, access paths chosen — so an execution
// only binds its arguments and runs the steps.
type Stmt struct {
	e       *Executor
	tmpl    Statement
	nparams int
	sel     *compiledSelect // non-nil for SELECT templates
}

// Prepare validates a statement template's parameter placeholders and
// returns a reusable prepared statement. Parameters may appear only as
// WHERE-clause operands; nparams is one more than the highest slot
// referenced (unreferenced lower slots are allowed — a probe template
// binds the full literal tuple of its update even when pruning dropped
// some predicates). SELECT templates are compiled here, once.
func (e *Executor) Prepare(s Statement) (*Stmt, error) {
	where, err := whereOf(s)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, p := range where {
		for _, o := range [2]Operand{p.Left, p.Right} {
			if !o.IsParam {
				continue
			}
			if o.Param < 0 {
				return nil, fmt.Errorf("sqlexec: negative parameter slot %d in %s", o.Param, p)
			}
			if o.Param+1 > n {
				n = o.Param + 1
			}
		}
	}
	st := &Stmt{e: e, tmpl: s, nparams: n}
	if sel, ok := s.(*SelectStmt); ok {
		cs, err := e.compileSelect(sel)
		if err != nil {
			return nil, err
		}
		st.sel = cs
	}
	return st, nil
}

// whereOf returns the WHERE clause of any preparable statement.
func whereOf(s Statement) ([]Predicate, error) {
	switch st := s.(type) {
	case *SelectStmt:
		return st.Where, nil
	case *DeleteStmt:
		return st.Where, nil
	case *UpdateStmt:
		return st.Where, nil
	case *InsertStmt:
		return nil, nil
	default:
		return nil, fmt.Errorf("sqlexec: cannot prepare %T", s)
	}
}

// String renders the template with ?N placeholders.
func (s *Stmt) String() string { return s.tmpl.String() }

// SQL renders the template with the argument tuple substituted inline
// — the text of the statement a Bind would produce, without
// materializing the bound copy.
func (s *Stmt) SQL(args ...relational.Value) string {
	if sel, ok := s.tmpl.(*SelectStmt); ok {
		var b strings.Builder
		sel.writeTo(&b, args)
		return b.String()
	}
	bound, err := s.Bind(args...)
	if err != nil {
		return s.tmpl.String()
	}
	return bound.String()
}

// Bind substitutes the argument tuple into a copy of the template and
// returns the executable statement. The template is not modified, so
// Bind is safe for concurrent use.
func (s *Stmt) Bind(args ...relational.Value) (Statement, error) {
	if len(args) < s.nparams {
		return nil, fmt.Errorf("sqlexec: statement needs %d bind arguments, got %d", s.nparams, len(args))
	}
	bindOp := func(o Operand) Operand {
		if o.IsParam {
			return LitOperand(args[o.Param])
		}
		return o
	}
	bindWhere := func(where []Predicate) []Predicate {
		if len(where) == 0 {
			return where
		}
		out := make([]Predicate, len(where))
		for i, p := range where {
			p.Left = bindOp(p.Left)
			p.Right = bindOp(p.Right)
			out[i] = p
		}
		return out
	}
	switch st := s.tmpl.(type) {
	case *SelectStmt:
		cp := *st
		cp.Where = bindWhere(st.Where)
		return &cp, nil
	case *DeleteStmt:
		cp := *st
		cp.Where = bindWhere(st.Where)
		return &cp, nil
	case *UpdateStmt:
		cp := *st
		cp.Where = bindWhere(st.Where)
		return &cp, nil
	default:
		return s.tmpl, nil
	}
}

// ExecSelectOn binds the arguments and evaluates the statement with row
// access routed through rd — the live database or a pinned snapshot.
// The statement must be a SELECT template; it runs off its compiled
// form — no per-call name resolution or join planning. One prepared statement may be
// bound and executed concurrently against many readers; nothing in the
// template or its compiled form is mutated.
func (s *Stmt) ExecSelectOn(rd Reader, args ...relational.Value) (*ResultSet, error) {
	if s.sel == nil {
		return nil, fmt.Errorf("sqlexec: ExecSelectOn on a %T statement", s.tmpl)
	}
	if len(args) < s.nparams {
		return nil, fmt.Errorf("sqlexec: statement needs %d bind arguments, got %d", s.nparams, len(args))
	}
	return s.e.runSelect(s.sel, rd, args)
}
