package sqlexec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/relational"
)

// refBytes hands out the fuzz input a byte at a time; past the end every
// byte reads as zero, so any input decodes to some database and query.
type refBytes struct {
	b []byte
	i int
}

func (r *refBytes) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	c := r.b[r.i]
	r.i++
	return c
}

func (r *refBytes) pick(n int) int { return int(r.next()) % n }

// value draws from a small domain so joins and filters meet: the ints
// 0..3 (a zero byte is 0), NULL, the strings "0".."2", integral and
// fractional floats.
func (r *refBytes) value() relational.Value {
	k := r.next()
	switch k % 8 {
	case 4:
		return relational.Null()
	case 5:
		return relational.String_(fmt.Sprint(k / 8 % 3))
	case 6:
		return relational.Float_(float64(k / 8 % 4))
	case 7:
		return relational.Float_(0.5 + float64(k/8%3))
	default:
		return relational.Int_(int64(k % 8))
	}
}

// refSchema builds the first n (2..4) tables of a fixed catalog: t0 has a
// composite primary key that t1 references, t2 references t1 through a
// nullable single column, t3 stands alone. Every key and foreign key is
// an index, so the catalog offers covering, composite, non-unique and
// missing indexes to the planner.
func refSchema(t testing.TB, n int) *relational.Schema {
	t.Helper()
	col := func(name string, typ relational.Type) relational.Column {
		return relational.Column{Name: name, Type: typ}
	}
	defs := []func() (*relational.TableDef, error){
		func() (*relational.TableDef, error) {
			return relational.NewTableDef("t0", []relational.Column{
				col("x", relational.TypeInt), col("y", relational.TypeInt), col("a", relational.TypeInt), col("s", relational.TypeString),
			}, []string{"x", "y"}, nil)
		},
		func() (*relational.TableDef, error) {
			return relational.NewTableDef("t1", []relational.Column{
				col("id", relational.TypeInt), col("x", relational.TypeInt), col("y", relational.TypeInt), col("a", relational.TypeInt),
			}, []string{"id"}, []relational.ForeignKey{{Name: "t1_t0", Columns: []string{"x", "y"},
				RefTable: "t0", RefColumns: []string{"x", "y"}, OnDelete: relational.DeleteCascade}})
		},
		func() (*relational.TableDef, error) {
			return relational.NewTableDef("t2", []relational.Column{
				col("id", relational.TypeInt), col("r", relational.TypeInt), col("a", relational.TypeInt), col("s", relational.TypeString),
			}, []string{"id"}, []relational.ForeignKey{{Name: "t2_t1", Columns: []string{"r"},
				RefTable: "t1", RefColumns: []string{"id"}, OnDelete: relational.DeleteSetNull}})
		},
		func() (*relational.TableDef, error) {
			return relational.NewTableDef("t3", []relational.Column{
				col("id", relational.TypeInt), col("a", relational.TypeInt), col("b", relational.TypeInt), col("s", relational.TypeString),
			}, []string{"id"}, nil)
		},
	}
	tables := make([]*relational.TableDef, n)
	for i := range tables {
		def, err := defs[i]()
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = def
	}
	s, err := relational.NewSchema(tables...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// refWrites applies up to max fuzz-chosen inserts, updates and deletes
// through the open transaction txn. Constraint failures are part of the
// input space: a write that fails is rolled back to the savepoint taken
// before it, so it is simply not there.
func refWrites(r *refBytes, schema *relational.Schema, txn *relational.Txn, ids map[string][]relational.RowID, max int) {
	tables := schema.Tables()
	for range r.pick(max + 1) {
		def := tables[r.pick(len(tables))]
		name := def.Name
		mark := txn.Savepoint()
		var err error
		switch op := r.pick(4); {
		case op <= 1 || len(ids[name]) == 0:
			vals := make(map[string]relational.Value, len(def.Columns))
			for _, c := range def.Columns {
				vals[c.Name] = r.value()
			}
			var id relational.RowID
			if id, err = txn.Insert(name, vals); err == nil {
				ids[name] = append(ids[name], id)
			}
		case op == 2:
			c := def.Columns[r.pick(len(def.Columns))]
			err = txn.UpdateRow(name, ids[name][r.pick(len(ids[name]))], map[string]relational.Value{c.Name: r.value()})
		default:
			_, err = txn.Delete(name, ids[name][r.pick(len(ids[name]))])
		}
		if err != nil {
			_ = txn.RollbackTo(mark)
		}
	}
}

// refQuery builds a conjunctive select over every table of the schema in
// a fuzz-chosen FROM order: literal, parameter and column predicates
// under =, <> and <, literal-on-the-left comparisons, rowid equalities
// (some against ids that exist) and IN-temp predicates over "tmp".
func refQuery(r *refBytes, schema *relational.Schema, ids map[string][]relational.RowID) *SelectStmt {
	tables := slices.Clone(schema.Tables())
	for i := len(tables) - 1; i > 0; i-- {
		j := r.pick(i + 1)
		tables[i], tables[j] = tables[j], tables[i]
	}
	s := &SelectStmt{}
	for _, def := range tables {
		s.From = append(s.From, def.Name)
	}
	column := func() Operand {
		def := tables[r.pick(len(tables))]
		if c := r.pick(len(def.Columns) + 1); c < len(def.Columns) {
			return ColOperand(def.Name, def.Columns[c].Name)
		}
		return ColOperand(def.Name, rowidColumn)
	}
	ops := []relational.CompareOp{relational.OpEQ, relational.OpEQ, relational.OpNE, relational.OpLT}
	for range 1 + r.pick(4) {
		op := ops[r.pick(len(ops))]
		switch r.pick(8) {
		case 0, 1:
			s.Where = append(s.Where, Predicate{Left: column(), Op: op, Right: LitOperand(r.value())})
		case 2:
			s.Where = append(s.Where, Predicate{Left: column(), Op: op, Right: ParamOperand(r.pick(3))})
		case 3, 4:
			s.Where = append(s.Where, Predicate{Left: column(), Op: op, Right: column()})
		case 5:
			def := tables[r.pick(len(tables))]
			right := LitOperand(relational.Int_(int64(r.pick(8))))
			if known := ids[strings.ToLower(def.Name)]; len(known) > 0 && r.pick(2) == 0 {
				right = LitOperand(relational.Int_(int64(known[r.pick(len(known))])))
			} else if r.pick(3) == 0 {
				right = ParamOperand(r.pick(3))
			}
			s.Where = append(s.Where, Predicate{Left: ColOperand(def.Name, rowidColumn), Op: relational.OpEQ, Right: right})
		case 6:
			s.Where = append(s.Where, Predicate{Left: column(), InTemp: "tmp", InTempColumn: "v"})
		default:
			s.Where = append(s.Where, Predicate{Left: LitOperand(r.value()), Op: op, Right: column()})
		}
	}
	if r.pick(4) > 0 {
		for range 1 + r.pick(4) {
			c := column()
			s.Project = append(s.Project, c.Col)
		}
	}
	return s
}

// referenceSelect evaluates s by brute force over rd: the cartesian
// product of every FROM table's scanned rows, filtered by each predicate
// under SQL semantics, then projected.
func referenceSelect(t testing.TB, rd Reader, s *SelectStmt, args []relational.Value, temp *ResultSet) [][]relational.Value {
	t.Helper()
	type boundRow struct {
		def  *relational.TableDef
		id   relational.RowID
		vals []relational.Value
	}
	rows := make([][]boundRow, len(s.From))
	for i, name := range s.From {
		def, _ := rd.Schema().Table(name)
		if err := rd.Scan(name, func(r *relational.Row) bool {
			rows[i] = append(rows[i], boundRow{def: def, id: r.ID, vals: r.Values})
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	cur := make([]boundRow, len(s.From))
	colValue := func(ref ColRef) relational.Value {
		for i, name := range s.From {
			if !strings.EqualFold(name, ref.Table) {
				continue
			}
			if strings.EqualFold(ref.Column, rowidColumn) {
				return relational.Int_(int64(cur[i].id))
			}
			c, _ := cur[i].def.ColumnIndex(ref.Column)
			return cur[i].vals[c]
		}
		t.Fatalf("reference: no table %s", ref.Table)
		return relational.Value{}
	}
	operand := func(o Operand) relational.Value {
		switch {
		case o.IsColumn:
			return colValue(o.Col)
		case o.IsParam:
			return args[o.Param]
		}
		return o.Lit
	}
	holds := func(p Predicate) bool {
		if p.InTemp == "" {
			return p.Op.Apply(operand(p.Left), operand(p.Right))
		}
		l := operand(p.Left)
		for _, row := range temp.Rows {
			if l.Equal(row[0]) {
				return true
			}
		}
		return false
	}
	var out [][]relational.Value
	var product func(i int)
	product = func(i int) {
		if i < len(s.From) {
			for _, r := range rows[i] {
				cur[i] = r
				product(i + 1)
			}
			return
		}
		for _, p := range s.Where {
			if !holds(p) {
				return
			}
		}
		var row []relational.Value
		if len(s.Project) == 0 {
			for _, b := range cur {
				row = append(row, b.vals...)
			}
		} else {
			for _, c := range s.Project {
				row = append(row, colValue(c))
			}
		}
		out = append(out, row)
	}
	product(0)
	return out
}

// rowMultiset renders rows as a sorted list of kind-tagged strings, so
// two results compare as multisets.
func rowMultiset(rows [][]relational.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		var b strings.Builder
		for _, v := range row {
			fmt.Fprintf(&b, "%d:%s|", v.Kind, v)
		}
		out[i] = b.String()
	}
	slices.Sort(out)
	return out
}

// bindLiterals is the one-shot twin of a prepared template: every
// parameter replaced by its argument.
func bindLiterals(s *SelectStmt, args []relational.Value) *SelectStmt {
	cp := *s
	cp.Where = slices.Clone(s.Where)
	for i, p := range cp.Where {
		if p.Left.IsParam {
			cp.Where[i].Left = LitOperand(args[p.Left.Param])
		}
		if p.Right.IsParam {
			cp.Where[i].Right = LitOperand(args[p.Right.Param])
		}
	}
	return &cp
}

// FuzzSelectMatchesReference holds the join evaluator to a brute-force
// reference. Read from the front, the fuzz bytes build 2–4 small tables
// (composite, non-unique and unique indexes), commit writes, pin a
// snapshot, commit more writes and open a transaction with writes of its
// own, so index buckets hold entries the readers must not see. Read from
// the back, they build an IN-temp table, three bind arguments and a
// conjunctive select. The select runs one-shot and prepared, with and
// without NoIndex, through the Database, the Snapshot and the Txn: each
// result must equal, as a row multiset, the cartesian product of that
// reader's scanned rows filtered by the predicates.
func FuzzSelectMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x02\x05\x01\x09\x11\x02\x19\x21\x03\x0a\x12\x1a\x04\x06\x00\x01\x02\x03\x04\x05\x06\x07"))
	f.Add([]byte("\x04\x06\x06\x06\x06\x06\x06\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13\x14\x15\x16\x17"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &refBytes{b: data}
		schema := refSchema(t, 2+d.pick(3))
		db := relational.NewDatabase(schema)
		ids := map[string][]relational.RowID{}
		write(t, db, func(txn *relational.Txn) error {
			for _, def := range schema.Tables() {
				for range 1 + d.pick(6) {
					vals := make(map[string]relational.Value, len(def.Columns))
					for _, c := range def.Columns {
						vals[c.Name] = d.value()
					}
					if id, err := txn.Insert(def.Name, vals); err == nil {
						ids[def.Name] = append(ids[def.Name], id)
					}
				}
			}
			return nil
		})
		writes := func(txn *relational.Txn) error {
			refWrites(d, schema, txn, ids, 4)
			return nil
		}
		write(t, db, writes)
		snap := db.Snapshot()
		defer snap.Close()
		write(t, db, writes)
		txn := db.Begin()
		defer txn.Rollback()
		refWrites(d, schema, txn, ids, 4)

		q := &refBytes{b: slices.Clone(data)}
		slices.Reverse(q.b)
		temp := &ResultSet{Columns: []ColRef{{Column: "v"}}}
		for range q.pick(5) {
			temp.Rows = append(temp.Rows, []relational.Value{q.value()})
		}
		e := NewExecutor(db)
		e.Materialize("tmp", temp)
		args := []relational.Value{q.value(), q.value(), q.value()}
		query := refQuery(q, schema, ids)

		readers := []struct {
			name string
			rd   Reader
		}{{"database", db}, {"snapshot", snap}, {"txn", txn}}
		for _, rdr := range readers {
			want := rowMultiset(referenceSelect(t, rdr.rd, query, args, temp))
			for _, noIndex := range []bool{false, true} {
				tmpl := *query
				tmpl.NoIndex = noIndex
				oneShot, err := e.ExecSelectOn(rdr.rd, bindLiterals(&tmpl, args))
				if err != nil {
					t.Fatalf("%s one-shot (NoIndex=%v) %s: %v", rdr.name, noIndex, &tmpl, err)
				}
				if got := rowMultiset(oneShot.Rows); !slices.Equal(got, want) {
					t.Fatalf("%s one-shot (NoIndex=%v) %s\n got %q\nwant %q", rdr.name, noIndex, tmpl.String(), got, want)
				}
				st, err := e.Prepare(&tmpl)
				if err != nil {
					t.Fatalf("%s prepare %s: %v", rdr.name, &tmpl, err)
				}
				prepared, err := st.ExecSelectOn(rdr.rd, args...)
				if err != nil {
					t.Fatalf("%s prepared (NoIndex=%v) %s: %v", rdr.name, noIndex, &tmpl, err)
				}
				if got := rowMultiset(prepared.Rows); !slices.Equal(got, want) {
					t.Fatalf("%s prepared (NoIndex=%v) %s args %v\n got %q\nwant %q", rdr.name, noIndex, tmpl.String(), args, got, want)
				}
			}
		}
	})
}
