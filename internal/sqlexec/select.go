package sqlexec

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/relational"
)

// A SELECT compiles once into a join program and runs many times. The
// program is a list of join steps in the planned order; every column a
// predicate, an equality key or the projection reads is addressed by
// position — (the step that binds it, its column index) — so a run binds
// rows into slices and never resolves a name. Everything that depends
// only on the schema is decided here, at compile time: name resolution,
// the join order, the step at which each predicate becomes decidable,
// and each step's access path (index structure is fixed when a table is
// created). A run keeps only what depends on its inputs: the bind
// arguments, the check that a rowid literal is an int, and the lookup of
// IN-temp tables, which are materialized per apply.

// source is a FROM relation: a base table, or a materialized temporary
// table resolved at compile time.
type source struct {
	name string               // the base table's name, or the temp's as FROM lists it
	cols []string             // column names, positional
	def  *relational.TableDef // nil for a temp
	temp *ResultSet           // nil for a base table
}

func (e *Executor) resolveSource(name string) (*source, error) {
	if rs, ok := e.Temp(name); ok {
		cols := make([]string, len(rs.Columns))
		for i, c := range rs.Columns {
			cols[i] = c.Column
		}
		return &source{name: name, cols: cols, temp: rs}, nil
	}
	if def, ok := e.DB.Schema().Table(name); ok {
		return &source{name: def.Name, cols: def.ColumnNames(), def: def}, nil
	}
	return nil, fmt.Errorf("%w: %s", relational.ErrNoSuchTable, name)
}

// rowCount serves join planning; a base table's is the live database's.
func (e *Executor) rowCount(src *source) int {
	if src.temp != nil {
		return len(src.temp.Rows)
	}
	return e.DB.RowCount(src.name)
}

// rowidCol is the column index of the rowid pseudo-column.
const rowidCol = -1

// srcCol is a column resolved at compile time: its source's index in
// FROM order, its column index (rowidCol for rowid) and canonical name.
type srcCol struct {
	src, col int
	name     string
}

// resolveColumn resolves a ColRef against the FROM sources, honoring the
// synthetic rowid column.
func resolveColumn(srcs []*source, ref ColRef) (srcCol, error) {
	if ref.Table != "" {
		for si, s := range srcs {
			if !strings.EqualFold(s.name, ref.Table) {
				continue
			}
			if strings.EqualFold(ref.Column, rowidColumn) {
				return srcCol{si, rowidCol, rowidColumn}, nil
			}
			for ci, c := range s.cols {
				if strings.EqualFold(c, ref.Column) {
					return srcCol{si, ci, c}, nil
				}
			}
			return srcCol{}, fmt.Errorf("%w: %s.%s", relational.ErrNoSuchColumn, ref.Table, ref.Column)
		}
		return srcCol{}, fmt.Errorf("%w: %s", relational.ErrNoSuchTable, ref.Table)
	}
	var found srcCol
	matches := 0
	for si, s := range srcs {
		if strings.EqualFold(ref.Column, rowidColumn) {
			found = srcCol{si, rowidCol, rowidColumn}
			matches++
			continue
		}
		for ci, c := range s.cols {
			if strings.EqualFold(c, ref.Column) {
				found = srcCol{si, ci, c}
				matches++
			}
		}
	}
	switch matches {
	case 0:
		return srcCol{}, fmt.Errorf("%w: %s", relational.ErrNoSuchColumn, ref.Column)
	case 1:
		return found, nil
	default:
		return srcCol{}, fmt.Errorf("sqlexec: ambiguous column %s", ref.Column)
	}
}

// normPred is a WHERE conjunct with its column references resolved:
// literal-on-left is canonicalized to literal-on-right, so left is
// always a column; right is one only when rightIsCol.
type normPred struct {
	p          Predicate
	left       srcCol
	right      srcCol
	rightIsCol bool
}

// colPos addresses a column bound during a run: the position of the join
// step whose row holds it, and its index in that row (rowidCol for the
// rowid pseudo-column).
type colPos struct{ step, col int }

// valueKind says where a compiled operand's value comes from.
type valueKind uint8

const (
	fromLit   valueKind = iota // a literal
	fromParam                  // a bind argument
	fromCol                    // a column an earlier step (or this one) bound
)

// valueSrc is a compiled predicate's right side or an equality key's
// value.
type valueSrc struct {
	kind  valueKind
	lit   relational.Value
	param int
	col   colPos
}

// stepPred is a WHERE conjunct compiled into the step where it becomes
// decidable: "left op right", or "left IN (SELECT … FROM temp)" when
// inTemp >= 0.
type stepPred struct {
	left   colPos
	op     relational.CompareOp
	right  valueSrc
	inTemp int // index into compiledSelect.inTemps, -1 for none
}

// inTempRef is the temp table an IN-temp predicate reads, looked up per
// run: temps are materialized per apply.
type inTempRef struct {
	temp, column string // as the predicate names them (error messages)
	col          ColRef // the temp column, defaulting to the left column's name
}

// access is a join step's access path.
type access uint8

const (
	scanRows    access = iota
	indexLookup        // keyCols cover an index
	semiJoin           // an IN-temp's distinct values drive lookups of an indexed column
)

// semiKey is a semi-join candidate: an IN-temp predicate on an indexed
// column of the step's table.
type semiKey struct {
	inTemp int
	col    []string // the one indexed column, as LookupRows takes it
}

// joinStep binds one FROM relation. Before its access path, a run tries
// rowids in order: the first whose value is an int fetches that row
// directly, like Oracle's ROWID access path.
type joinStep struct {
	src    *source
	preds  []stepPred // decidable once this step binds, in WHERE order
	rowids []valueSrc
	access access
	// indexLookup: the step's equality keys when they cover an index,
	// else the first one with a single-column index; keyOff is the
	// step's slice of a run's key buffer.
	keyCols []string
	keyVals []valueSrc
	keyOff  int
	// keyTypes is set when the step reads nothing of its row but the
	// key columns and rowid: it looks up ids only (LookupEqual) and binds
	// the key values, coerced to keyTypes, as its row, which every
	// reference to the step addresses by key position.
	keyTypes []relational.Type
	// semiJoin: candidates in WHERE order; the first whose temp resolves
	// drives the lookups, and with none the step scans.
	semi []semiKey
}

// compiledSelect is a select statement compiled into its join program.
// Prepared statements compile once and run many times; a one-shot
// ExecSelectOn compiles and runs immediately. Parameters are bound per
// run.
type compiledSelect struct {
	steps   []joinStep
	inTemps []inTempRef
	columns []ColRef
	slots   []colPos
	nparams int
	nkeys   int
}

// compileSelect resolves a conjunctive select-project-join query —
// sources, predicate column references, projection — plans the greedy
// join order (planJoinOrder) and compiles it into join steps, each with
// its predicates and access path: the rowid path for a rowid equality,
// an index lookup when an index covers the step's equality keys (or one
// of them), an IN-temp semi-join on an indexed column, or a filtered
// scan. NoIndex leaves every step a scan.
func (e *Executor) compileSelect(s *SelectStmt) (*compiledSelect, error) {
	if len(s.From) == 0 {
		return nil, fmt.Errorf("sqlexec: SELECT with empty FROM")
	}
	srcs := make([]*source, len(s.From))
	for i, f := range s.From {
		if slices.ContainsFunc(s.From[:i], func(g string) bool { return strings.EqualFold(f, g) }) {
			return nil, fmt.Errorf("sqlexec: relation %s listed twice in FROM (aliases unsupported)", f)
		}
		src, err := e.resolveSource(f)
		if err != nil {
			return nil, err
		}
		srcs[i] = src
	}

	cs := &compiledSelect{}
	preds := make([]normPred, 0, len(s.Where))
	for _, p := range s.Where {
		for _, o := range [2]Operand{p.Left, p.Right} {
			if o.IsParam && o.Param+1 > cs.nparams {
				cs.nparams = o.Param + 1
			}
		}
		if !p.Left.IsColumn {
			if !p.Right.IsColumn || p.InTemp != "" {
				return nil, fmt.Errorf("sqlexec: predicate %s has no column operand", p)
			}
			p.Left, p.Right = p.Right, p.Left
			p.Op = p.Op.Flip()
		}
		np := normPred{p: p}
		var err error
		if np.left, err = resolveColumn(srcs, p.Left.Col); err != nil {
			return nil, err
		}
		if p.Right.IsColumn && p.InTemp == "" {
			if np.right, err = resolveColumn(srcs, p.Right.Col); err != nil {
				return nil, err
			}
			np.rightIsCol = true
		}
		preds = append(preds, np)
	}

	order := planJoinOrder(e, srcs, preds)
	pos := make([]int, len(srcs))
	for i, si := range order {
		pos[si] = i
	}
	at := func(c srcCol) colPos { return colPos{pos[c.src], c.col} }
	stepOf := func(np normPred) int {
		if np.rightIsCol {
			return max(pos[np.left.src], pos[np.right.src])
		}
		return pos[np.left.src]
	}
	cs.steps = make([]joinStep, len(order))
	for i, si := range order {
		st := &cs.steps[i]
		st.src = srcs[si]
		indexed := st.src.temp == nil && !s.NoIndex
		var eqCols []string
		var eqVals []valueSrc
		for _, np := range preds {
			if stepOf(np) != i {
				continue
			}
			sp := stepPred{left: at(np.left), op: np.p.Op, inTemp: -1}
			switch {
			case np.p.InTemp != "":
				col := ColRef{Column: np.p.InTempColumnOr()}
				if t, c, ok := strings.Cut(col.Column, "."); ok && t != "" {
					col = ColRef{Table: t, Column: c}
				}
				sp.inTemp = len(cs.inTemps)
				cs.inTemps = append(cs.inTemps, inTempRef{temp: np.p.InTemp, column: np.p.InTempColumn, col: col})
			case np.rightIsCol:
				sp.right = valueSrc{kind: fromCol, col: at(np.right)}
			case np.p.Right.IsParam:
				sp.right = valueSrc{kind: fromParam, param: np.p.Right.Param}
			default:
				sp.right = valueSrc{lit: np.p.Right.Lit}
			}
			st.preds = append(st.preds, sp)

			leftHere := pos[np.left.src] == i
			rightHere := np.rightIsCol && pos[np.right.src] == i
			switch {
			case !indexed, np.p.InTemp == "" && np.p.Op != relational.OpEQ:
				// a scan's filter only
			case sp.inTemp >= 0:
				if np.left.col != rowidCol && e.DB.HasIndexOn(st.src.name, []string{np.left.name}) {
					st.semi = append(st.semi, semiKey{inTemp: sp.inTemp, col: []string{np.left.name}})
				}
			case np.left.col == rowidCol && !np.rightIsCol:
				st.rowids = append(st.rowids, sp.right)
			case np.left.col == rowidCol || (np.rightIsCol && np.right.col == rowidCol):
				// a join on rowid is no index key
			case leftHere && !rightHere:
				eqCols, eqVals = append(eqCols, np.left.name), append(eqVals, sp.right)
			case rightHere && !leftHere:
				eqCols, eqVals = append(eqCols, np.right.name), append(eqVals, valueSrc{kind: fromCol, col: at(np.left)})
			}
		}
		// Try progressively smaller key sets so a composite predicate can
		// still hit a single-column index.
		if len(eqCols) > 0 && e.DB.HasIndexOn(st.src.name, eqCols) {
			st.access, st.keyCols, st.keyVals = indexLookup, eqCols, eqVals
		} else {
			for k := range eqCols {
				if e.DB.HasIndexOn(st.src.name, eqCols[k:k+1]) {
					st.access, st.keyCols, st.keyVals = indexLookup, eqCols[k:k+1], eqVals[k:k+1]
					break
				}
			}
		}
		switch {
		case st.access == indexLookup:
			st.keyOff = cs.nkeys
			cs.nkeys += len(st.keyCols)
			st.semi = nil
		case len(st.semi) > 0:
			st.access = semiJoin
		}
	}

	if len(cs.steps) > maxSteps {
		return nil, fmt.Errorf("sqlexec: SELECT joins %d relations, at most %d", len(cs.steps), maxSteps)
	}

	project := s.Project
	if len(project) == 0 {
		for _, src := range srcs {
			for _, c := range src.cols {
				project = append(project, ColRef{Table: src.name, Column: c})
			}
		}
	}
	cs.columns = make([]ColRef, len(project))
	cs.slots = make([]colPos, len(project))
	for i, pr := range project {
		c, err := resolveColumn(srcs, pr)
		if err != nil {
			return nil, err
		}
		cs.columns[i] = ColRef{Table: srcs[c.src].name, Column: c.name}
		cs.slots[i] = at(c)
	}
	cs.keyOnly()
	return cs, nil
}

// cols calls fn on every column reference of the program: predicate
// operands, key and rowid values, the projection.
func (cs *compiledSelect) cols(fn func(*colPos)) {
	val := func(v *valueSrc) {
		if v.kind == fromCol {
			fn(&v.col)
		}
	}
	for i := range cs.steps {
		st := &cs.steps[i]
		for j := range st.preds {
			fn(&st.preds[j].left)
			if st.preds[j].inTemp < 0 {
				val(&st.preds[j].right)
			}
		}
		for j := range st.keyVals {
			val(&st.keyVals[j])
		}
		for j := range st.rowids {
			val(&st.rowids[j])
		}
	}
	for i := range cs.slots {
		fn(&cs.slots[i])
	}
}

// keyOnly marks each index step on a base table that no reference reads
// past its key columns and rowid (and that has no rowid path, which
// binds a whole row): its references then address the key positions.
func (cs *compiledSelect) keyOnly() {
	keyPos := func(st *joinStep, col int) int {
		return slices.IndexFunc(st.keyCols, func(c string) bool { return c == st.src.cols[col] })
	}
	for i := range cs.steps {
		st := &cs.steps[i]
		if st.access != indexLookup || st.src.temp != nil || len(st.rowids) > 0 {
			continue
		}
		only := true
		cs.cols(func(p *colPos) { only = only && (p.step != i || p.col == rowidCol || keyPos(st, p.col) >= 0) })
		if !only {
			continue
		}
		cs.cols(func(p *colPos) {
			if p.step == i && p.col != rowidCol {
				p.col = keyPos(st, p.col)
			}
		})
		st.keyTypes = make([]relational.Type, len(st.keyCols))
		for j, c := range st.keyCols {
			st.keyTypes[j] = st.src.def.Columns[slices.Index(st.src.cols, c)].Type
		}
	}
}

// InTempColumnOr defaults the IN-subquery column to the left column name.
func (np Predicate) InTempColumnOr() string {
	if np.InTempColumn != "" {
		return np.InTempColumn
	}
	return np.Left.Col.Column
}

// planJoinOrder scores relations and returns their FROM indexes in greedy
// join order: start from the most constrained relation (literal equality
// on an indexed column, then literal predicates, then smallest
// cardinality), then repeatedly pick a relation connected by an equi-join
// to the bound set (preferring indexed joins), tie-breaking on
// cardinality.
func planJoinOrder(e *Executor, srcs []*source, preds []normPred) []int {
	literalScore := func(k int) int {
		score := 0
		for _, np := range preds {
			if np.rightIsCol || np.p.InTemp != "" || np.left.src != k {
				continue
			}
			score += 10
			if np.p.Op == relational.OpEQ && e.DB.HasIndexOn(srcs[k].name, []string{np.left.name}) {
				score += 100
			}
		}
		return score
	}
	bound := make([]bool, len(srcs))
	result := make([]int, 0, len(srcs))
	for len(result) < len(srcs) {
		best, bestScore := -1, -1
		for k, src := range srcs {
			if bound[k] {
				continue
			}
			sc := literalScore(k)
			for _, np := range preds {
				if len(result) == 0 || !np.rightIsCol || np.p.Op != relational.OpEQ {
					continue
				}
				var joinCol string
				switch l, r := np.left.src, np.right.src; {
				case l == k && bound[r]:
					joinCol = np.left.name
				case r == k && bound[l]:
					joinCol = np.right.name
				default:
					continue
				}
				sc += 50
				if e.DB.HasIndexOn(src.name, []string{joinCol}) {
					sc += 100
				}
			}
			if sc > bestScore || (sc == bestScore && e.rowCount(src) < e.rowCount(srcs[best])) {
				best, bestScore = k, sc
			}
		}
		result = append(result, best)
		bound[best] = true
	}
	return result
}

// ExecSelectOn compiles and evaluates a select in one shot against the
// given Reader — the live database or a pinned snapshot. Compilation
// (name resolution, join planning) uses the executor's schema and
// statistics; row access goes through rd, so a snapshot-pinned caller
// sees a single point-in-time state for the whole query.
func (e *Executor) ExecSelectOn(rd Reader, s *SelectStmt) (*ResultSet, error) {
	cs, err := e.compileSelect(s)
	if err != nil {
		return nil, err
	}
	return e.runSelect(cs, rd, nil)
}

// maxSteps bounds the relations a SELECT joins, so a run binds its
// rows into arrays of its own.
const maxSteps = 8

// run is one evaluation of a compiled select: the row each step has
// bound, by step position, the key buffer of the index steps, the IN-temp
// tables as this run resolved them, and the counters it adds to the
// executor's when it ends. Nothing in a run points into it, so a run
// lives on its caller's stack; a scan, whose callback must reach the run,
// runs on a heap copy (scan).
type run struct {
	e       *Executor
	cs      *compiledSelect
	rd      Reader
	args    []relational.Value
	keys    []relational.Value // handed to the Reader, so never the run's own
	temps   []tempCol
	out     [][]relational.Value
	scanned int64
	probes  int64

	ids  [maxSteps]relational.RowID
	rows [maxSteps][]relational.Value
}

// tempCol is an IN-temp table as a run resolved it on first use.
type tempCol struct {
	rs       *ResultSet // nil: no such temp
	ci       int        // the column's index; -1 when the temp or column is missing
	resolved bool
	distinct []relational.Value // the column's values, each key once (semi-joins)
	deduped  bool
}

// runSelect evaluates a compiled select against rd under a bound
// argument tuple (nil for statements without parameters).
func (e *Executor) runSelect(cs *compiledSelect, rd Reader, args []relational.Value) (*ResultSet, error) {
	if len(args) < cs.nparams {
		return nil, fmt.Errorf("sqlexec: select needs %d bind arguments, got %d (Bind the prepared statement first)", cs.nparams, len(args))
	}
	r := run{e: e, cs: cs, rd: rd, args: args}
	if cs.nkeys > 0 {
		r.keys = make([]relational.Value, cs.nkeys)
	}
	err := r.bind(0)
	if r.scanned > 0 {
		e.addRowsScanned(r.scanned)
	}
	if r.probes > 0 {
		e.addIndexProbes(r.probes)
	}
	if err != nil {
		return nil, err
	}
	return &ResultSet{Columns: cs.columns, Rows: r.out}, nil
}

// bind binds the rows of step depth through its access path and, under
// each, the later steps; a complete binding emits a result row.
func (r *run) bind(depth int) error {
	if depth == len(r.cs.steps) {
		row := make([]relational.Value, len(r.cs.slots))
		for i, p := range r.cs.slots {
			row[i] = r.col(p)
		}
		r.out = append(r.out, row)
		return nil
	}
	st := &r.cs.steps[depth]
	for i := range st.rowids {
		v := r.value(&st.rowids[i])
		if v.Kind != relational.KindInt {
			continue
		}
		row, err := r.rd.Get(st.src.name, relational.RowID(v.Int))
		if err != nil {
			return nil // no such row: this branch of the join is empty
		}
		r.probes++
		return r.try(depth, row.ID, row.Values)
	}
	switch st.access {
	case indexLookup:
		keys := r.keys[st.keyOff : st.keyOff+len(st.keyVals)]
		for i := range st.keyVals {
			keys[i] = r.value(&st.keyVals[i])
		}
		if st.keyTypes != nil {
			return r.lookupKeys(depth, keys)
		}
		return r.lookup(depth, st.keyCols, keys)
	case semiJoin:
		// An IN-temp predicate on an indexed column drives lookups from
		// the (small) materialized result instead of scanning the base
		// relation — the subquery unnesting a relational engine performs
		// for translated deletes like the paper's U3.
		for _, sk := range st.semi {
			tc := r.temp(sk.inTemp)
			if tc.ci < 0 {
				continue
			}
			for _, v := range tc.distinctValues() {
				if err := r.lookup(depth, sk.col, []relational.Value{v}); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if temp := st.src.temp; temp != nil {
		for _, row := range temp.Rows {
			r.scanned++
			if err := r.try(depth, 0, row); err != nil {
				return err
			}
		}
		return nil
	}
	return r.scan(depth)
}

// scan binds the rows of step depth by scanning its table. The scan's
// callback outlives nothing, but the compiler cannot know that, so it
// reaches a heap copy of the run, copied back when the scan ends.
func (r *run) scan(depth int) error {
	h := new(run)
	*h = *r
	var err error
	serr := h.rd.Scan(h.cs.steps[depth].src.name, func(row *relational.Row) bool {
		h.scanned++
		err = h.try(depth, row.ID, row.Values)
		return err == nil
	})
	*r = *h
	if serr != nil {
		return serr
	}
	return err
}

// lookupKeys binds the ids of step depth whose key columns equal keys, a
// key-only step's: the keys, coerced to their columns' types, are what
// each row holds there.
func (r *run) lookupKeys(depth int, keys []relational.Value) error {
	st := &r.cs.steps[depth]
	ids, err := r.rd.LookupEqual(st.src.name, st.keyCols, keys)
	if err != nil {
		return err
	}
	r.probes++
	if len(ids) == 0 {
		return nil
	}
	for i, t := range st.keyTypes {
		if keys[i], err = keys[i].CoerceTo(t); err != nil {
			return err
		}
	}
	for _, id := range ids {
		if err := r.try(depth, id, keys); err != nil {
			return err
		}
	}
	return nil
}

// lookup binds the rows of step depth whose cols equal vals, each
// resolved once by the Reader's lookup.
func (r *run) lookup(depth int, cols []string, vals []relational.Value) error {
	rows, err := r.rd.LookupRows(r.cs.steps[depth].src.name, cols, vals)
	if err != nil {
		return err
	}
	r.probes++
	for i := range rows {
		if err := r.try(depth, rows[i].ID, rows[i].Values); err != nil {
			return err
		}
	}
	return nil
}

// try binds one row at step depth and, if every predicate decidable
// there holds, the steps after it.
func (r *run) try(depth int, id relational.RowID, vals []relational.Value) error {
	r.ids[depth], r.rows[depth] = id, vals
	for i := range r.cs.steps[depth].preds {
		ok, err := r.holds(&r.cs.steps[depth].preds[i])
		if !ok || err != nil {
			return err
		}
	}
	return r.bind(depth + 1)
}

// holds evaluates one predicate under the current binding.
func (r *run) holds(p *stepPred) (bool, error) {
	lv := r.col(p.left)
	if p.inTemp < 0 {
		return p.op.Apply(lv, r.value(&p.right)), nil
	}
	tc := r.temp(p.inTemp)
	if tc.ci < 0 {
		ref := &r.cs.inTemps[p.inTemp]
		if tc.rs == nil {
			return false, fmt.Errorf("%w: temp table %s", relational.ErrNoSuchTable, ref.temp)
		}
		return false, fmt.Errorf("%w: %s.%s", relational.ErrNoSuchColumn, ref.temp, ref.column)
	}
	for _, row := range tc.rs.Rows {
		r.scanned++
		if lv.Equal(row[tc.ci]) {
			return true, nil
		}
	}
	return false, nil
}

func (r *run) col(p colPos) relational.Value {
	if p.col == rowidCol {
		return relational.Int_(int64(r.ids[p.step]))
	}
	return r.rows[p.step][p.col]
}

func (r *run) value(v *valueSrc) relational.Value {
	switch v.kind {
	case fromParam:
		return r.args[v.param]
	case fromCol:
		return r.col(v.col)
	}
	return v.lit
}

// temp returns IN-temp table i as this run sees it, looking it up on
// first use.
func (r *run) temp(i int) *tempCol {
	if r.temps == nil {
		r.temps = make([]tempCol, len(r.cs.inTemps))
	}
	tc := &r.temps[i]
	if !tc.resolved {
		tc.resolved, tc.ci = true, -1
		if rs, ok := r.e.Temp(r.cs.inTemps[i].temp); ok {
			tc.rs = rs
			if ci, ok := rs.ColumnIndex(r.cs.inTemps[i].col); ok {
				tc.ci = ci
			}
		}
	}
	return tc
}

// distinctValues returns the temp column's values in first-occurrence
// order, each index key once, so a semi-join binds every base row at
// most once. Computed on first use.
func (tc *tempCol) distinctValues() []relational.Value {
	if tc.deduped {
		return tc.distinct
	}
	tc.deduped = true
	rows := tc.rs.Rows
	keys := make([]string, len(rows))
	order := make([]int, len(rows))
	for i, row := range rows {
		keys[i], order[i] = row[tc.ci].EncodeKey(), i
	}
	// A stable sort keeps each key's first occurrence first in its run.
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(keys[a], keys[b]) })
	dup := make([]bool, len(rows))
	for j := 1; j < len(order); j++ {
		dup[order[j]] = keys[order[j]] == keys[order[j-1]]
	}
	for i, row := range rows {
		if !dup[i] {
			tc.distinct = append(tc.distinct, row[tc.ci])
		}
	}
	return tc.distinct
}
