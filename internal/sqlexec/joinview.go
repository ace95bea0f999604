package sqlexec

import (
	"fmt"
	"strings"

	"repro/internal/relational"
)

// JoinStep is one LEFT JOIN in a relational view definition: Table is
// joined to ParentTable ON ParentTable.ParentColumn = Table.Column.
type JoinStep struct {
	Table        string
	ParentTable  string
	ParentColumn string
	Column       string
}

// JoinViewDef defines an updatable left-join relational view — the
// mapping relational view of Section 6.2.1 (Fig. 11), e.g.
//
//	CREATE VIEW RelationalBookView AS
//	  SELECT ... FROM publisher LEFT JOIN book ON ... LEFT JOIN review ON ...
//
// The internal update-point strategy maps the XML view update into an
// update over this view, which the engine decomposes into base-table
// operations.
type JoinViewDef struct {
	Name  string
	Root  string
	Steps []JoinStep
}

// Tables returns the base tables in join order, root first.
func (v *JoinViewDef) Tables() []string {
	out := []string{v.Root}
	for _, s := range v.Steps {
		out = append(out, s.Table)
	}
	return out
}

// SQL renders the view definition.
func (v *JoinViewDef) SQL() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE VIEW %s AS SELECT * FROM %s", v.Name, v.Root)
	for _, s := range v.Steps {
		fmt.Fprintf(&b, " LEFT JOIN %s ON %s.%s = %s.%s",
			s.Table, s.ParentTable, s.ParentColumn, s.Table, s.Column)
	}
	return b.String()
}

// Evaluate materializes the view's rows. Unmatched left-join slots are
// NULL-padded, matching Fig. 11's RelationalBookView content.
func (e *Executor) EvaluateJoinView(v *JoinViewDef) (*ResultSet, error) {
	schema := e.DB.Schema()
	rootDef, ok := schema.Table(v.Root)
	if !ok {
		return nil, fmt.Errorf("%w: %s", relational.ErrNoSuchTable, v.Root)
	}
	type level struct {
		def  *relational.TableDef
		step *JoinStep
	}
	levels := []level{{def: rootDef}}
	var columns []ColRef
	for _, c := range rootDef.ColumnNames() {
		columns = append(columns, ColRef{Table: rootDef.Name, Column: c})
	}
	for i := range v.Steps {
		s := &v.Steps[i]
		def, ok := schema.Table(s.Table)
		if !ok {
			return nil, fmt.Errorf("%w: %s", relational.ErrNoSuchTable, s.Table)
		}
		levels = append(levels, level{def: def, step: s})
		for _, c := range def.ColumnNames() {
			columns = append(columns, ColRef{Table: def.Name, Column: c})
		}
	}
	out := &ResultSet{Columns: columns}

	width := make([]int, len(levels))
	for i, lv := range levels {
		width[i] = len(lv.def.Columns)
	}

	var expand func(depth int, acc [][]relational.Value)
	expand = func(depth int, acc [][]relational.Value) {
		if depth == len(levels) {
			var row []relational.Value
			for _, part := range acc {
				row = append(row, part...)
			}
			out.Rows = append(out.Rows, row)
			return
		}
		lv := levels[depth]
		step := lv.step
		parentIdx := -1
		for i := 0; i < depth; i++ {
			if strings.EqualFold(levels[i].def.Name, step.ParentTable) {
				parentIdx = i
				break
			}
		}
		if parentIdx < 0 || acc[parentIdx] == nil {
			acc = append(acc, nullRow(width[depth]))
			expand(depth+1, acc)
			return
		}
		pcol, _ := levels[parentIdx].def.ColumnIndex(step.ParentColumn)
		pval := acc[parentIdx][pcol]
		if pval.IsNull() {
			acc = append(acc, nullRow(width[depth]))
			expand(depth+1, acc)
			return
		}
		rows, err := e.DB.LookupRows(lv.def.Name, []string{step.Column}, []relational.Value{pval})
		if err != nil || len(rows) == 0 {
			acc = append(acc, nullRow(width[depth]))
			expand(depth+1, acc)
			return
		}
		for _, r := range rows {
			expand(depth+1, append(acc, r.Values)) // copied into the view row
		}
	}

	e.DB.Scan(v.Root, func(r *relational.Row) bool {
		e.addRowsScanned(1)
		vals := make([]relational.Value, len(r.Values))
		copy(vals, r.Values)
		expand(1, [][]relational.Value{vals})
		return true
	})
	return out, nil
}

// InsertIntoJoinView inserts a complete view tuple through transaction
// t, decomposing it per base table in join order: for each table whose
// key part is present, the engine probes for an existing row; when found, the tuple's values for that table must
// agree with the stored row (else the insert is rejected,
// Oracle-style); when missing, a new base row is inserted. The return
// value counts base rows actually inserted.
//
// This is deliberately the expensive path the paper measures in Fig. 15:
// the caller must supply values for every attribute of every relation in
// the view, which forces the wide upstream probe query.
func (e *Executor) InsertIntoJoinView(t relational.WriteTxn, v *JoinViewDef, values map[string]relational.Value) (int, error) {
	schema := e.DB.Schema()
	inserted := 0
	for _, tname := range v.Tables() {
		def, ok := schema.Table(tname)
		if !ok {
			return inserted, fmt.Errorf("%w: %s", relational.ErrNoSuchTable, tname)
		}
		part := make(map[string]relational.Value)
		any := false
		for _, c := range def.ColumnNames() {
			if val, ok := values[strings.ToLower(tname)+"."+strings.ToLower(c)]; ok && !val.IsNull() {
				part[c] = val
				any = true
			}
		}
		if !any {
			continue
		}
		// Probe by primary key for an existing row.
		var pkVals []relational.Value
		pkComplete := len(def.PrimaryKey) > 0
		for _, pk := range def.PrimaryKey {
			val, ok := part[pk]
			if !ok {
				pkComplete = false
				break
			}
			pkVals = append(pkVals, val)
		}
		if pkComplete {
			ids, err := t.LookupEqual(tname, def.PrimaryKey, pkVals)
			if err != nil {
				return inserted, err
			}
			if len(ids) > 0 {
				existing, err := t.ValuesByName(tname, ids[0])
				if err != nil {
					return inserted, err
				}
				for c, val := range part {
					if stored, ok := existing[c]; ok && !stored.Equal(val) && !(stored.IsNull() && val.IsNull()) {
						return inserted, fmt.Errorf("sqlexec: view insert conflicts with existing %s row on column %s (stored %s, given %s)",
							tname, c, stored, val)
					}
				}
				continue // consistent duplicate: nothing to insert at this level
			}
		}
		if _, err := t.Insert(tname, part); err != nil {
			return inserted, err
		}
		inserted++
	}
	return inserted, nil
}

// DeleteFromJoinView deletes, through transaction t, the base rows of
// the deepest table whose key columns are bound in the predicate map,
// the standard decomposition for deletes through a left-join view. It
// returns rows deleted.
func (e *Executor) DeleteFromJoinView(t relational.WriteTxn, v *JoinViewDef, keyValues map[string]relational.Value) (int, error) {
	tables := v.Tables()
	for i := len(tables) - 1; i >= 0; i-- {
		def, ok := e.DB.Schema().Table(tables[i])
		if !ok {
			continue
		}
		var cols []string
		var vals []relational.Value
		complete := len(def.PrimaryKey) > 0
		for _, pk := range def.PrimaryKey {
			val, ok := keyValues[strings.ToLower(tables[i])+"."+strings.ToLower(pk)]
			if !ok {
				complete = false
				break
			}
			cols = append(cols, pk)
			vals = append(vals, val)
		}
		if !complete {
			continue
		}
		ids, err := t.LookupEqual(tables[i], cols, vals)
		if err != nil {
			return 0, err
		}
		total := 0
		for _, id := range ids {
			n, err := t.Delete(tables[i], id)
			total += n
			if err != nil {
				return total, err
			}
		}
		return total, nil
	}
	return 0, fmt.Errorf("sqlexec: no complete key bound for delete through view %s", v.Name)
}

func nullRow(n int) []relational.Value {
	row := make([]relational.Value, n)
	for i := range row {
		row[i] = relational.Null()
	}
	return row
}
