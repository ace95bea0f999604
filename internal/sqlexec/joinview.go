package sqlexec

import (
	"fmt"
	"strings"

	"repro/internal/relational"
)

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
	Name   string
	Tables []string // the base tables in join order, root first
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
	for _, tname := range v.Tables {
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
				existing, err := t.Get(tname, ids[0])
				if err != nil {
					return inserted, err
				}
				for i, c := range def.Columns {
					if val, ok := part[c.Name]; ok && !existing.Values[i].Equal(val) {
						return inserted, fmt.Errorf("sqlexec: view insert conflicts with existing %s row on column %s (stored %s, given %s)",
							tname, c.Name, existing.Values[i], val)
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
