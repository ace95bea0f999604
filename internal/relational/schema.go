package relational

import (
	"fmt"
	"slices"
	"strings"
)

// CheckPredicate is a single-column CHECK constraint of the form
// "column op literal" (e.g. price > 0.00). A column may carry several,
// interpreted conjunctively.
type CheckPredicate struct {
	Op      CompareOp
	Operand Value
}

// String renders the predicate with a placeholder for the column value.
func (c CheckPredicate) String() string {
	return fmt.Sprintf("value %s %s", c.Op, c.Operand)
}

// Holds reports whether the given value satisfies the predicate. NULL
// values vacuously satisfy CHECK constraints, per SQL semantics.
func (c CheckPredicate) Holds(v Value) bool {
	if v.IsNull() {
		return true
	}
	return c.Op.Apply(v, c.Operand)
}

// Column describes one column of a relation.
type Column struct {
	Name    string
	Type    Type
	NotNull bool
	Unique  bool
	Checks  []CheckPredicate
}

// DeletePolicy is the referential action taken on a foreign key when the
// referenced row is deleted.
type DeletePolicy int

const (
	// DeleteRestrict rejects the delete while referencing rows exist.
	DeleteRestrict DeletePolicy = iota
	// DeleteCascade deletes referencing rows transitively.
	DeleteCascade
	// DeleteSetNull sets the referencing columns to NULL.
	DeleteSetNull
)

// String renders the policy in SQL syntax.
func (p DeletePolicy) String() string {
	switch p {
	case DeleteRestrict:
		return "RESTRICT"
	case DeleteCascade:
		return "CASCADE"
	case DeleteSetNull:
		return "SET NULL"
	default:
		return fmt.Sprintf("DeletePolicy(%d)", int(p))
	}
}

// ForeignKey is a referential constraint from one table to another.
type ForeignKey struct {
	Name       string
	Columns    []string // referencing columns, in this table
	RefTable   string
	RefColumns []string // referenced columns (must be a key of RefTable)
	OnDelete   DeletePolicy
}

// TableDef is the schema of a single relation.
type TableDef struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string
	ForeignKeys []ForeignKey

	colIndex map[string]int // lower-cased name → position
	notNull  []bool         // per column: NOT NULL, declared or by the primary key
}

// NewTableDef constructs a TableDef and freezes its column lookup table.
func NewTableDef(name string, columns []Column, primaryKey []string, fks []ForeignKey) (*TableDef, error) {
	t := &TableDef{
		Name:        name,
		Columns:     columns,
		PrimaryKey:  primaryKey,
		ForeignKeys: fks,
		colIndex:    make(map[string]int, len(columns)),
		notNull:     make([]bool, len(columns)),
	}
	for i, c := range columns {
		lower := strings.ToLower(c.Name)
		if _, dup := t.colIndex[lower]; dup {
			return nil, fmt.Errorf("relational: table %s: duplicate column %s", name, c.Name)
		}
		t.colIndex[lower] = i
		t.notNull[i] = c.NotNull
	}
	for _, pk := range primaryKey {
		i, ok := t.colIndex[strings.ToLower(pk)]
		if !ok {
			return nil, fmt.Errorf("relational: table %s: primary key column %s not found", name, pk)
		}
		t.notNull[i] = true
	}
	for _, fk := range fks {
		for _, c := range fk.Columns {
			if _, ok := t.colIndex[strings.ToLower(c)]; !ok {
				return nil, fmt.Errorf("relational: table %s: foreign key column %s not found", name, c)
			}
		}
		if len(fk.Columns) != len(fk.RefColumns) {
			return nil, fmt.Errorf("relational: table %s: foreign key %s arity mismatch", name, fk.Name)
		}
	}
	return t, nil
}

// ColumnIndex returns the positional index of a column (case-insensitive)
// and whether it exists. A name already in lower case, as most are, is
// found without folding it.
func (t *TableDef) ColumnIndex(name string) (int, bool) {
	if i, ok := t.colIndex[name]; ok {
		return i, true
	}
	i, ok := t.colIndex[strings.ToLower(name)]
	return i, ok
}

// AppendRow places named values at their column positions, appending
// one row in declared column order to dst[:0] (grown past it when the
// table is wider); a column values does not name is NULL, and a name no
// column has fails with ErrNoSuchColumn. It is the adapter a
// name-keyed insert (Txn.Insert, an SQL INSERT) takes into the
// positional core; the values are coerced there.
func (t *TableDef) AppendRow(dst []Value, values map[string]Value) ([]Value, error) {
	row := slices.Grow(dst[:0], len(t.Columns))[:len(t.Columns)]
	clear(row)
	for name, v := range values {
		i, ok := t.ColumnIndex(name)
		if !ok {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.Name, name)
		}
		row[i] = v
	}
	return row, nil
}

// ColumnNamed returns the column definition for a name.
func (t *TableDef) ColumnNamed(name string) (*Column, bool) {
	i, ok := t.ColumnIndex(name)
	if !ok {
		return nil, false
	}
	return &t.Columns[i], true
}

// ColumnNames returns the ordered column names.
func (t *TableDef) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// IsKeyColumn reports whether the named column is, by itself, a unique
// identifier for rows of this table: either declared UNIQUE, or the sole
// primary key column.
func (t *TableDef) IsKeyColumn(name string) bool {
	if c, ok := t.ColumnNamed(name); ok && c.Unique {
		return true
	}
	return len(t.PrimaryKey) == 1 && strings.EqualFold(t.PrimaryKey[0], name)
}

// IsNotNullColumn reports whether the column is NOT NULL, either
// explicitly or by being part of the primary key.
func (t *TableDef) IsNotNullColumn(name string) bool {
	i, ok := t.ColumnIndex(name)
	return ok && t.notNull[i]
}

// Schema is the set of relations of a database plus their constraints.
type Schema struct {
	tables []*TableDef
	byName map[string]*TableDef
}

// NewSchema assembles a schema from table definitions and validates the
// cross-table constraints (foreign keys must reference keys of existing
// tables).
func NewSchema(tables ...*TableDef) (*Schema, error) {
	s := &Schema{byName: make(map[string]*TableDef, len(tables))}
	for _, t := range tables {
		lower := strings.ToLower(t.Name)
		if _, dup := s.byName[lower]; dup {
			return nil, fmt.Errorf("relational: duplicate table %s", t.Name)
		}
		s.byName[lower] = t
		s.tables = append(s.tables, t)
	}
	for _, t := range tables {
		for _, fk := range t.ForeignKeys {
			ref, ok := s.byName[strings.ToLower(fk.RefTable)]
			if !ok {
				return nil, fmt.Errorf("relational: table %s: foreign key references unknown table %s", t.Name, fk.RefTable)
			}
			if !ref.isKeyColumns(fk.RefColumns) {
				return nil, fmt.Errorf("relational: table %s: foreign key %s does not reference a key of %s", t.Name, fk.Name, fk.RefTable)
			}
		}
	}
	return s, nil
}

// isKeyColumns reports whether cols form a key of the table: the primary
// key, or a single UNIQUE column.
func (t *TableDef) isKeyColumns(cols []string) bool {
	if len(cols) == len(t.PrimaryKey) {
		match := true
		for i := range cols {
			if !strings.EqualFold(cols[i], t.PrimaryKey[i]) {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	if len(cols) == 1 {
		if c, ok := t.ColumnNamed(cols[0]); ok && c.Unique {
			return true
		}
	}
	return false
}

// Table returns the table definition by name (case-insensitive).
func (s *Schema) Table(name string) (*TableDef, bool) {
	if t, ok := s.byName[name]; ok {
		return t, true
	}
	t, ok := s.byName[strings.ToLower(name)]
	return t, ok
}

// Tables returns the table definitions in declaration order.
func (s *Schema) Tables() []*TableDef { return s.tables }

// TableNames returns the declared table names in order.
func (s *Schema) TableNames() []string {
	out := make([]string, len(s.tables))
	for i, t := range s.tables {
		out[i] = t.Name
	}
	return out
}

// ReferencingKeys returns every foreign key in the schema that references
// the given table.
func (s *Schema) ReferencingKeys(table string) []struct {
	Table *TableDef
	FK    ForeignKey
} {
	var out []struct {
		Table *TableDef
		FK    ForeignKey
	}
	for _, t := range s.tables {
		for _, fk := range t.ForeignKeys {
			if strings.EqualFold(fk.RefTable, table) {
				out = append(out, struct {
					Table *TableDef
					FK    ForeignKey
				}{t, fk})
			}
		}
	}
	return out
}

// Extend computes the paper's extend(R): the set of relation names that
// refer to R through one or more foreign key constraints, transitively,
// plus R itself. (Section 5.1.1, used by STAR Rule 2.)
func (s *Schema) Extend(table string) map[string]bool {
	out := map[string]bool{}
	var visit func(string)
	visit = func(name string) {
		lower := strings.ToLower(name)
		if out[lower] {
			return
		}
		out[lower] = true
		for _, ref := range s.ReferencingKeys(name) {
			visit(ref.Table.Name)
		}
	}
	visit(table)
	return out
}
