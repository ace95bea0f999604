// Package viewengine materializes virtual XML views over the relational
// engine, playing the role of the XPERANTO/SilkRoute publishing
// middleware in the U-Filter paper's architecture (Section 2, Fig. 5's
// "view generation" box): it evaluates the default XML view — each
// relation published as <table><row>...</row></table>, Fig. 2 — and
// user view queries (the FLWR definitions of Fig. 3(a)) by compiling
// each FLWR block to a select-project-join over the base tables and
// nesting the results into an xmltree document.
//
// U-Filter itself never needs a materialized view to reach a verdict —
// that independence is the point of the paper. The engine exists for
// everything around the checker: the quickstart and examples show the
// view being edited, tests compare an update's effect against the
// expected document, and the Fig. 14 "blind" baseline
// (ufilter.Filter.BlindApply) materializes the view before and after an
// uninformed translation to detect side effects the hard way — the
// expensive diff-and-rollback U-Filter's schema-level steps avoid.
package viewengine

import (
	"fmt"
	"strings"

	"repro/internal/relational"
	"repro/internal/sqlexec"
	"repro/internal/xmltree"
	"repro/internal/xqparse"
)

// Engine materializes views over a database.
type Engine struct {
	Exec *sqlexec.Executor
	// Rd, when non-nil, routes every row read through the given Reader —
	// a pinned snapshot for point-in-time materialization, or an open
	// transaction so the materialized view reflects that transaction's
	// uncommitted writes (the Fig. 14 blind baseline diffs the view
	// inside its transaction before deciding to commit). Nil reads the
	// latest committed state.
	Rd sqlexec.Reader
}

// New wraps a database in a view engine.
func New(db relational.Engine) *Engine {
	return &Engine{Exec: sqlexec.NewExecutor(db)}
}

// reader resolves the engine's data source.
func (e *Engine) reader() sqlexec.Reader {
	if e.Rd != nil {
		return e.Rd
	}
	return e.Exec.DB
}

// varBinding is one variable's current tuple during FLWR evaluation.
type varBinding struct {
	table string
	vals  map[string]relational.Value
}

type env map[string]varBinding

// Materialize evaluates a parsed view query into an XML document.
func (e *Engine) Materialize(v *xqparse.ViewQuery) (*xmltree.Node, error) {
	root := xmltree.Elem(v.RootTag)
	if err := e.evalItems(v.Items, env{}, root); err != nil {
		return nil, err
	}
	return root, nil
}

// MaterializeQuery parses and evaluates a view query source text.
func (e *Engine) MaterializeQuery(query string) (*xmltree.Node, error) {
	v, err := xqparse.ParseViewQuery(query)
	if err != nil {
		return nil, err
	}
	return e.Materialize(v)
}

func (e *Engine) evalItems(items []xqparse.BodyItem, en env, parent *xmltree.Node) error {
	for _, it := range items {
		switch n := it.(type) {
		case *xqparse.FLWR:
			if err := e.evalFLWR(n, en, parent); err != nil {
				return err
			}
		case *xqparse.Constructor:
			elem := xmltree.Elem(n.Tag)
			if err := e.evalItems(n.Items, en, elem); err != nil {
				return err
			}
			parent.Append(elem)
		case *xqparse.Projection:
			b, ok := en[n.Var]
			if !ok {
				return fmt.Errorf("viewengine: unbound variable $%s", n.Var)
			}
			val, ok := b.vals[strings.ToLower(n.Field)]
			if !ok {
				return fmt.Errorf("viewengine: $%s has no field %s (table %s)", n.Var, n.Field, b.table)
			}
			elem := xmltree.Elem(n.Field)
			if !val.IsNull() {
				elem.Append(xmltree.Text(val.String()))
			}
			parent.Append(elem)
		case *xqparse.TextLiteral:
			parent.Append(xmltree.Text(n.Value))
		default:
			return fmt.Errorf("viewengine: unsupported body item %T", it)
		}
	}
	return nil
}

// evalFLWR compiles the FLWR's bindings and predicates into a
// select-project-join, evaluates it, and emits the RETURN body once per
// result tuple.
func (e *Engine) evalFLWR(f *xqparse.FLWR, outer env, parent *xmltree.Node) error {
	// Bind each FOR variable to its relation.
	varTable := make(map[string]string, len(f.Bindings))
	var from []string
	for _, b := range f.Bindings {
		t := b.Source.Table()
		if t == "" {
			return fmt.Errorf("viewengine: binding $%s is not over the default view (source %s)", b.Var, b.Source)
		}
		if _, ok := e.Exec.DB.Schema().Table(t); !ok {
			return fmt.Errorf("%w: %s", relational.ErrNoSuchTable, t)
		}
		varTable[b.Var] = t
		from = append(from, t)
	}

	// Compile predicates. Operands over this FLWR's variables become
	// column references; operands over outer variables become literals
	// (correlated evaluation); literal operands pass through.
	compile := func(o xqparse.PredOperand) (sqlexec.Operand, error) {
		if o.IsLiteral {
			return sqlexec.LitOperand(o.Lit), nil
		}
		if t, ok := varTable[o.Var]; ok {
			return sqlexec.ColOperand(t, o.Field), nil
		}
		if b, ok := outer[o.Var]; ok {
			val, ok := b.vals[strings.ToLower(o.Field)]
			if !ok {
				return sqlexec.Operand{}, fmt.Errorf("viewengine: $%s has no field %s", o.Var, o.Field)
			}
			return sqlexec.LitOperand(val), nil
		}
		return sqlexec.Operand{}, fmt.Errorf("viewengine: unbound variable $%s in predicate", o.Var)
	}
	var where []sqlexec.Predicate
	for _, p := range f.Preds {
		left, err := compile(p.Left)
		if err != nil {
			return err
		}
		right, err := compile(p.Right)
		if err != nil {
			return err
		}
		where = append(where, sqlexec.Predicate{Left: left, Op: p.Op, Right: right})
	}

	rs, err := e.Exec.ExecSelectOn(e.reader(), &sqlexec.SelectStmt{From: from, Where: where})
	if err != nil {
		return err
	}

	// Column offsets per variable for fast binding construction.
	type colSlot struct {
		v    string
		name string
	}
	slots := make([]colSlot, len(rs.Columns))
	for i, c := range rs.Columns {
		for v, t := range varTable {
			if strings.EqualFold(t, c.Table) {
				slots[i] = colSlot{v: v, name: strings.ToLower(c.Column)}
			}
		}
	}

	for _, row := range rs.Rows {
		inner := make(env, len(outer)+len(f.Bindings))
		for k, v := range outer {
			inner[k] = v
		}
		for _, b := range f.Bindings {
			inner[b.Var] = varBinding{table: varTable[b.Var], vals: make(map[string]relational.Value)}
		}
		for i, sl := range slots {
			if sl.v == "" {
				continue
			}
			inner[sl.v].vals[sl.name] = row[i]
		}
		if err := e.evalItems(f.Return, inner, parent); err != nil {
			return err
		}
	}
	return nil
}
