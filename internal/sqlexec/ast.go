// Package sqlexec provides a small SQL abstract syntax and an executor
// over the relational engine. It covers exactly the statement shapes
// U-Filter emits: conjunctive select-project-join probe queries,
// single-table INSERT / DELETE / UPDATE statements (optionally consuming
// materialized probe results via IN-subqueries), materialized temporary
// tables, and updatable left-join relational views (the "internal"
// update-point strategy of Section 6.2.1).
package sqlexec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/relational"
)

// ColRef names a column, optionally qualified by its table. An empty
// Table resolves against the FROM list when unambiguous.
type ColRef struct {
	Table  string
	Column string
}

// String renders the reference in SQL syntax.
func (c ColRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// Operand is one side of a predicate: a column reference, a literal
// value, or a parameter placeholder to be bound by a prepared
// statement (see prepared.go).
type Operand struct {
	IsColumn bool
	Col      ColRef
	Lit      relational.Value
	// IsParam marks a placeholder; Param is its zero-based slot in the
	// bind-argument tuple. Statements containing unbound parameters can
	// be prepared and printed but not executed.
	IsParam bool
	Param   int
}

// ColOperand builds a column operand.
func ColOperand(table, column string) Operand {
	return Operand{IsColumn: true, Col: ColRef{Table: table, Column: column}}
}

// LitOperand builds a literal operand.
func LitOperand(v relational.Value) Operand { return Operand{Lit: v} }

// ParamOperand builds a parameter placeholder for bind slot i.
func ParamOperand(i int) Operand { return Operand{IsParam: true, Param: i} }

// String renders the operand in SQL syntax; parameters print as ?N
// (1-based, like Oracle's :N positional binds).
func (o Operand) String() string {
	var b strings.Builder
	o.writeTo(&b)
	return b.String()
}

// writeTo renders the operand into a builder (the statement renderers'
// hot path — no fmt machinery).
func (o Operand) writeTo(b *strings.Builder) {
	switch {
	case o.IsColumn:
		if o.Col.Table != "" {
			b.WriteString(o.Col.Table)
			b.WriteByte('.')
		}
		b.WriteString(o.Col.Column)
	case o.IsParam:
		b.WriteByte('?')
		b.WriteString(strconv.Itoa(o.Param + 1))
	case o.Lit.Kind == relational.KindString:
		b.WriteByte('\'')
		b.WriteString(o.Lit.Str)
		b.WriteByte('\'')
	default:
		b.WriteString(o.Lit.String())
	}
}

// Predicate is a conjunct of a WHERE clause: either "left op right" or,
// when InTemp is set, "left IN (SELECT <InTempColumn> FROM <InTemp>)" —
// the form translated deletes use to consume materialized probe results
// (statement U3 in the paper).
type Predicate struct {
	Left         Operand
	Op           relational.CompareOp
	Right        Operand
	InTemp       string
	InTempColumn string
}

// String renders the predicate in SQL syntax.
func (p Predicate) String() string {
	var b strings.Builder
	p.writeTo(&b)
	return b.String()
}

// writeTo renders the predicate into a builder.
func (p Predicate) writeTo(b *strings.Builder) {
	p.Left.writeTo(b)
	if p.InTemp != "" {
		b.WriteString(" IN (SELECT ")
		b.WriteString(p.InTempColumn)
		b.WriteString(" FROM ")
		b.WriteString(p.InTemp)
		b.WriteByte(')')
		return
	}
	b.WriteByte(' ')
	b.WriteString(p.Op.String())
	b.WriteByte(' ')
	p.Right.writeTo(b)
}

// Eq builds an equality predicate between a column and a literal.
func Eq(table, column string, v relational.Value) Predicate {
	return Predicate{Left: ColOperand(table, column), Op: relational.OpEQ, Right: LitOperand(v)}
}

// Cmp builds a comparison predicate between a column and a literal.
func Cmp(table, column string, op relational.CompareOp, v relational.Value) Predicate {
	return Predicate{Left: ColOperand(table, column), Op: op, Right: LitOperand(v)}
}

// SelectStmt is a conjunctive select-project-join query. An empty
// Project list selects every column of every FROM relation. Project
// entries may reference the synthetic column "rowid".
type SelectStmt struct {
	Project []ColRef
	From    []string
	Where   []Predicate
	// NoIndex forces scan-based evaluation, ignoring base-table
	// indexes and the rowid access path. The outside strategy's probes
	// set this: the paper's implementation evaluates them as joins over
	// materialized results "where indices do not exist" (Section 7.2).
	NoIndex bool
}

// String renders the statement in SQL syntax.
func (s *SelectStmt) String() string {
	var b strings.Builder
	s.writeTo(&b, nil)
	return b.String()
}

// writeTo renders the statement; a non-nil args tuple substitutes
// parameter placeholders inline (the prepared-statement probe-text
// path, which skips materializing a bound copy).
func (s *SelectStmt) writeTo(b *strings.Builder, args []relational.Value) {
	b.WriteString("SELECT ")
	if len(s.Project) == 0 {
		b.WriteString("*")
	} else {
		for i, c := range s.Project {
			if i > 0 {
				b.WriteString(", ")
			}
			if c.Table != "" {
				b.WriteString(c.Table)
				b.WriteByte('.')
			}
			b.WriteString(c.Column)
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(s.From, ", "))
	for i, p := range s.Where {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		if args != nil {
			if p.Left.IsParam {
				p.Left = LitOperand(args[p.Left.Param])
			}
			if p.Right.IsParam {
				p.Right = LitOperand(args[p.Right.Param])
			}
		}
		p.writeTo(b)
	}
}

// InsertStmt is a single-table INSERT.
type InsertStmt struct {
	Table  string
	Values map[string]relational.Value
}

// String renders the statement in SQL syntax with deterministic column
// order.
func (s *InsertStmt) String() string {
	cols := make([]string, 0, len(s.Values))
	for c := range s.Values {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(s.Table)
	b.WriteString(" (")
	b.WriteString(strings.Join(cols, ", "))
	b.WriteString(") VALUES (")
	for i, c := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		Operand{Lit: s.Values[c]}.writeTo(&b)
	}
	b.WriteString(")")
	return b.String()
}

// DeleteStmt is a single-table DELETE with a conjunctive WHERE.
type DeleteStmt struct {
	Table string
	Where []Predicate
}

// String renders the statement in SQL syntax.
func (s *DeleteStmt) String() string {
	var b strings.Builder
	b.WriteString("DELETE FROM ")
	b.WriteString(s.Table)
	writeWhere(&b, s.Where)
	return b.String()
}

// writeWhere renders a conjunctive WHERE clause.
func writeWhere(b *strings.Builder, where []Predicate) {
	for i, p := range where {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		p.writeTo(b)
	}
}

// UpdateStmt is a single-table UPDATE with a conjunctive WHERE.
type UpdateStmt struct {
	Table string
	Set   map[string]relational.Value
	Where []Predicate
}

// String renders the statement in SQL syntax with deterministic SET
// order.
func (s *UpdateStmt) String() string {
	cols := make([]string, 0, len(s.Set))
	for c := range s.Set {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	var b strings.Builder
	b.WriteString("UPDATE ")
	b.WriteString(s.Table)
	b.WriteString(" SET ")
	for i, c := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c)
		b.WriteString(" = ")
		Operand{Lit: s.Set[c]}.writeTo(&b)
	}
	writeWhere(&b, s.Where)
	return b.String()
}

// Statement is any executable DML statement.
type Statement interface {
	fmt.Stringer
	isStatement()
}

func (*SelectStmt) isStatement() {}
func (*InsertStmt) isStatement() {}
func (*DeleteStmt) isStatement() {}
func (*UpdateStmt) isStatement() {}

// ResultSet is the output of a select: qualified column headers plus
// value rows.
type ResultSet struct {
	Columns []ColRef
	Rows    [][]relational.Value
}

// ColumnIndex finds a column in the result by (table, column) reference;
// an empty table matches any table when the column name is unambiguous.
func (rs *ResultSet) ColumnIndex(ref ColRef) (int, bool) {
	found := -1
	for i, c := range rs.Columns {
		if !strings.EqualFold(c.Column, ref.Column) {
			continue
		}
		if ref.Table != "" && !strings.EqualFold(c.Table, ref.Table) {
			continue
		}
		if found >= 0 {
			return -1, false // ambiguous
		}
		found = i
	}
	return found, found >= 0
}

// Empty reports whether the result has no rows (the probe-query signal
// for "context not in the view" / "no data conflict").
func (rs *ResultSet) Empty() bool { return len(rs.Rows) == 0 }
