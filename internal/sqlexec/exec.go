package sqlexec

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/relational"
)

// rowidColumn is the synthetic column exposing the storage row id, as
// Oracle's ROWID pseudo-column does. Translated deletes address rows
// through it.
const rowidColumn = "rowid"

// Reader is the read-only data surface a SELECT evaluates against:
// the live *relational.Database or an immutable *relational.Snapshot.
// Compilation (name resolution, join planning) always happens against
// the executor's database — the schema and index structure are shared
// — while execution resolves rows through the Reader, so one compiled
// or prepared statement serves both latest reads and snapshot-pinned
// reads.
type Reader = relational.Reader

// Executor evaluates SQL statements over a relational database plus a
// namespace of materialized temporary tables (probe-query results kept
// for reuse, per Section 6.1). Temporary tables have no indexes — the
// paper's Fig. 16 discussion relies on exactly this asymmetry.
//
// Concurrency: the statistics counters are updated atomically and the
// temporary-table namespace is internally locked, so read-only
// ExecSelect calls may run concurrently. DML (ExecInsert/ExecDelete/
// ExecUpdate) takes an explicit relational.WriteTxn handle: concurrent
// callers each write through their own transaction, the engine detects
// write-write conflicts (relational.ErrWriteConflict,
// first-updater-wins), and a nil handle autocommits the statement.
//
// The executor is written against the relational.Engine seam, so the
// same SQL machinery runs over a single *relational.Database or a
// hash-partitioned shard group (internal/shard) transparently.
type Executor struct {
	DB relational.Engine

	tempMu sync.RWMutex
	temps  map[string]*ResultSet

	// Stats accumulate over the executor's lifetime for the benchmark
	// harness: rows visited during scans and index probes issued. Read
	// them with RowsScannedTotal/IndexProbesTotal when other goroutines
	// may be executing queries.
	RowsScanned int64
	IndexProbes int64
}

// NewExecutor wraps a storage engine (a *relational.Database or a
// shard group).
func NewExecutor(db relational.Engine) *Executor {
	return &Executor{DB: db, temps: make(map[string]*ResultSet)}
}

// RowsScannedTotal atomically reads the rows-visited counter.
func (e *Executor) RowsScannedTotal() int64 { return atomic.LoadInt64(&e.RowsScanned) }

// IndexProbesTotal atomically reads the index-probe counter.
func (e *Executor) IndexProbesTotal() int64 { return atomic.LoadInt64(&e.IndexProbes) }

// ExecStats is a point-in-time snapshot of the executor's statistics
// counters. Every field is read atomically, so a snapshot may be taken
// while other goroutines are executing queries.
type ExecStats struct {
	// RowsScanned counts rows visited during table scans.
	RowsScanned int64 `json:"rows_scanned"`
	// IndexProbes counts index lookups issued.
	IndexProbes int64 `json:"index_probes"`
}

// Stats snapshots the statistics counters atomically.
func (e *Executor) Stats() ExecStats {
	return ExecStats{
		RowsScanned: e.RowsScannedTotal(),
		IndexProbes: e.IndexProbesTotal(),
	}
}

// addRowsScanned bumps the scan counter; a call per visited row.
func (e *Executor) addRowsScanned(n int64) { atomic.AddInt64(&e.RowsScanned, n) }

// addIndexProbes bumps the probe counter.
func (e *Executor) addIndexProbes(n int64) { atomic.AddInt64(&e.IndexProbes, n) }

// Materialize stores a result set as a temporary table usable in FROM
// clauses and IN-subqueries (the paper's TAB_book).
func (e *Executor) Materialize(name string, rs *ResultSet) {
	e.tempMu.Lock()
	e.temps[strings.ToLower(name)] = rs
	e.tempMu.Unlock()
}

// DropTemp removes a materialized table.
func (e *Executor) DropTemp(name string) {
	e.tempMu.Lock()
	delete(e.temps, strings.ToLower(name))
	e.tempMu.Unlock()
}

// Temp fetches a materialized table by name.
func (e *Executor) Temp(name string) (*ResultSet, bool) {
	e.tempMu.RLock()
	rs, ok := e.temps[strings.ToLower(name)]
	e.tempMu.RUnlock()
	return rs, ok
}

// source abstracts a scannable relation: a base table or a materialized
// temporary table. Row access goes through the Reader chosen at
// execution time; rowCount serves join planning and reads the live
// database.
type source interface {
	name() string
	columnNames() []string
	// scan visits each row as (rowid, values); rowid is 0 for temps.
	scan(rd Reader, fn func(relational.RowID, []relational.Value) bool)
	// lookup returns matching rows via an index; ok=false when no index
	// covers the columns (temps never have indexes).
	lookup(rd Reader, cols []string, vals []relational.Value) (ids []relational.RowID, rows [][]relational.Value, ok bool)
	rowCount() int
}

type baseSource struct {
	e   *Executor
	def *relational.TableDef
}

func (s *baseSource) name() string { return s.def.Name }

func (s *baseSource) columnNames() []string { return s.def.ColumnNames() }

func (s *baseSource) scan(rd Reader, fn func(relational.RowID, []relational.Value) bool) {
	rd.Scan(s.def.Name, func(r *relational.Row) bool {
		s.e.addRowsScanned(1)
		return fn(r.ID, r.Values)
	})
}

func (s *baseSource) lookup(rd Reader, cols []string, vals []relational.Value) ([]relational.RowID, [][]relational.Value, bool) {
	if !rd.HasIndexOn(s.def.Name, cols) {
		return nil, nil, false
	}
	ids, err := rd.LookupEqual(s.def.Name, cols, vals)
	if err != nil {
		return nil, nil, false
	}
	s.e.addIndexProbes(1)
	rows := make([][]relational.Value, len(ids))
	for i, id := range ids {
		r, err := rd.Get(s.def.Name, id)
		if err != nil {
			return nil, nil, false
		}
		rows[i] = r.Values
	}
	return ids, rows, true
}

func (s *baseSource) rowCount() int { return s.e.DB.RowCount(s.def.Name) }

type tempSource struct {
	e    *Executor
	nm   string
	rs   *ResultSet
	cols []string
}

func newTempSource(e *Executor, nm string, rs *ResultSet) *tempSource {
	cols := make([]string, len(rs.Columns))
	for i, c := range rs.Columns {
		cols[i] = c.Column
	}
	return &tempSource{e: e, nm: nm, rs: rs, cols: cols}
}

func (s *tempSource) name() string { return s.nm }

func (s *tempSource) columnNames() []string { return s.cols }

func (s *tempSource) scan(_ Reader, fn func(relational.RowID, []relational.Value) bool) {
	for _, row := range s.rs.Rows {
		s.e.addRowsScanned(1)
		if !fn(0, row) {
			return
		}
	}
}

func (s *tempSource) lookup(Reader, []string, []relational.Value) ([]relational.RowID, [][]relational.Value, bool) {
	return nil, nil, false // temps are unindexed by design
}

func (s *tempSource) rowCount() int { return len(s.rs.Rows) }

func (e *Executor) resolveSource(name string) (source, error) {
	if rs, ok := e.Temp(name); ok {
		return newTempSource(e, name, rs), nil
	}
	if def, ok := e.DB.Schema().Table(name); ok {
		return &baseSource{e: e, def: def}, nil
	}
	return nil, fmt.Errorf("%w: %s", relational.ErrNoSuchTable, name)
}

// binding is the join state: per-FROM-relation current row.
type binding struct {
	rowids map[string]relational.RowID
	rows   map[string][]relational.Value
}

// resolveColumn resolves a ColRef against the FROM sources, honoring the
// synthetic rowid column.
func resolveColumn(srcs map[string]source, ref ColRef) (table string, col string, err error) {
	if ref.Table != "" {
		s, ok := srcs[strings.ToLower(ref.Table)]
		if !ok {
			return "", "", fmt.Errorf("%w: %s", relational.ErrNoSuchTable, ref.Table)
		}
		if strings.EqualFold(ref.Column, rowidColumn) {
			return s.name(), rowidColumn, nil
		}
		for _, c := range s.columnNames() {
			if strings.EqualFold(c, ref.Column) {
				return s.name(), c, nil
			}
		}
		return "", "", fmt.Errorf("%w: %s.%s", relational.ErrNoSuchColumn, ref.Table, ref.Column)
	}
	var ft, fc string
	matches := 0
	for _, s := range srcs {
		if strings.EqualFold(ref.Column, rowidColumn) {
			ft, fc = s.name(), rowidColumn
			matches++
			continue
		}
		for _, c := range s.columnNames() {
			if strings.EqualFold(c, ref.Column) {
				ft, fc = s.name(), c
				matches++
			}
		}
	}
	switch matches {
	case 0:
		return "", "", fmt.Errorf("%w: %s", relational.ErrNoSuchColumn, ref.Column)
	case 1:
		return ft, fc, nil
	default:
		return "", "", fmt.Errorf("sqlexec: ambiguous column %s", ref.Column)
	}
}

// normPred is a WHERE conjunct with its column references resolved
// against the FROM sources. rightTable is empty when the right side is a
// literal or an IN-subquery.
type normPred struct {
	p          Predicate
	leftTable  string
	leftCol    string
	rightTable string
	rightCol   string
}

// projSlot locates one projected column against the FROM sources.
type projSlot struct {
	table string
	col   string
	idx   int // column index; -1 for rowid
}

// compiledSelect is a select statement with its name resolution and
// join planning done: sources, normalized predicates, projection slots
// and the greedy join order. Prepared statements compile once and run
// many times; a one-shot ExecSelect compiles and runs immediately.
// Predicates may still contain parameter placeholders — they are bound
// per run.
type compiledSelect struct {
	stmt      *SelectStmt
	srcs      map[string]source
	order     []string
	joinOrder []string
	preds     []normPred
	columns   []ColRef
	slots     []projSlot
	nparams   int
}

// compileSelect resolves a conjunctive select-project-join query:
// sources, predicate column references (canonicalizing literal-on-left
// into literal-on-right), projection slots, and the greedy join order —
// the most constrained relation (literal equality on an indexed column,
// then literal predicates, then smallest cardinality) is bound first,
// and subsequent relations are joined via index lookups whenever an
// index covers the join columns, falling back to filtered scans
// otherwise.
func (e *Executor) compileSelect(s *SelectStmt) (*compiledSelect, error) {
	if len(s.From) == 0 {
		return nil, fmt.Errorf("sqlexec: SELECT with empty FROM")
	}
	cs := &compiledSelect{stmt: s}
	cs.srcs = make(map[string]source, len(s.From))
	cs.order = make([]string, 0, len(s.From))
	for _, f := range s.From {
		src, err := e.resolveSource(f)
		if err != nil {
			return nil, err
		}
		key := strings.ToLower(f)
		if _, dup := cs.srcs[key]; dup {
			return nil, fmt.Errorf("sqlexec: relation %s listed twice in FROM (aliases unsupported)", f)
		}
		cs.srcs[key] = src
		cs.order = append(cs.order, key)
	}

	// Normalize predicates: resolve column references and canonicalize
	// literal-on-left into literal-on-right.
	cs.preds = make([]normPred, 0, len(s.Where))
	for _, p := range s.Where {
		np := normPred{p: p}
		for _, o := range [2]Operand{p.Left, p.Right} {
			if o.IsParam && o.Param+1 > cs.nparams {
				cs.nparams = o.Param + 1
			}
		}
		if !p.Left.IsColumn {
			if p.Right.IsColumn && p.InTemp == "" {
				p.Left, p.Right = p.Right, p.Left
				p.Op = p.Op.Flip()
				np.p = p
			} else {
				return nil, fmt.Errorf("sqlexec: predicate %s has no column operand", p)
			}
		}
		lt, lc, err := resolveColumn(cs.srcs, np.p.Left.Col)
		if err != nil {
			return nil, err
		}
		np.leftTable, np.leftCol = lt, lc
		if np.p.Right.IsColumn && np.p.InTemp == "" {
			rt, rc, err := resolveColumn(cs.srcs, np.p.Right.Col)
			if err != nil {
				return nil, err
			}
			np.rightTable, np.rightCol = rt, rc
		}
		cs.preds = append(cs.preds, np)
	}

	// Greedy join-order scoring.
	cs.joinOrder = planJoinOrder(e, cs.srcs, cs.order, cs.preds)

	project := s.Project
	if len(project) == 0 {
		for _, key := range cs.order {
			src := cs.srcs[key]
			for _, c := range src.columnNames() {
				project = append(project, ColRef{Table: src.name(), Column: c})
			}
		}
	}
	cs.columns = make([]ColRef, len(project))
	cs.slots = make([]projSlot, len(project))
	for i, pr := range project {
		pt, pc, err := resolveColumn(cs.srcs, pr)
		if err != nil {
			return nil, err
		}
		cs.columns[i] = ColRef{Table: pt, Column: pc}
		idx := -1
		if !strings.EqualFold(pc, rowidColumn) {
			for j, c := range cs.srcs[strings.ToLower(pt)].columnNames() {
				if strings.EqualFold(c, pc) {
					idx = j
					break
				}
			}
		}
		cs.slots[i] = projSlot{table: strings.ToLower(pt), col: pc, idx: idx}
	}
	return cs, nil
}

// ExecSelect compiles and evaluates a select in one shot against the
// live database. Statements containing parameter placeholders must go
// through Prepare/Bind.
func (e *Executor) ExecSelect(s *SelectStmt) (*ResultSet, error) {
	return e.ExecSelectOn(e.DB, s)
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

// runSelect evaluates a compiled select against rd under a bound
// argument tuple (nil for statements without parameters).
func (e *Executor) runSelect(cs *compiledSelect, rd Reader, args []relational.Value) (*ResultSet, error) {
	if len(args) < cs.nparams {
		return nil, fmt.Errorf("sqlexec: select needs %d bind arguments, got %d (Bind the prepared statement first)", cs.nparams, len(args))
	}
	s := cs.stmt
	srcs, joinOrder, preds, slots := cs.srcs, cs.joinOrder, cs.preds, cs.slots
	// Materialize parameter values into a run-local predicate view.
	if cs.nparams > 0 {
		bound := make([]normPred, len(preds))
		copy(bound, preds)
		for i := range bound {
			if bound[i].p.Left.IsParam {
				bound[i].p.Left = LitOperand(args[bound[i].p.Left.Param])
			}
			if bound[i].p.Right.IsParam {
				bound[i].p.Right = LitOperand(args[bound[i].p.Right.Param])
			}
		}
		preds = bound
	}

	bind := &binding{
		rowids: make(map[string]relational.RowID, len(cs.order)),
		rows:   make(map[string][]relational.Value, len(cs.order)),
	}
	var out ResultSet
	out.Columns = cs.columns

	// predicateReady reports whether every column in the predicate is
	// bound; evaluate returns its truth under the current binding.
	colValue := func(table, col string) relational.Value {
		if strings.EqualFold(col, rowidColumn) {
			return relational.Int_(int64(bind.rowids[strings.ToLower(table)]))
		}
		row := bind.rows[strings.ToLower(table)]
		for j, c := range srcs[strings.ToLower(table)].columnNames() {
			if strings.EqualFold(c, col) {
				return row[j]
			}
		}
		return relational.Null()
	}
	evalPred := func(np normPred) (bool, error) {
		lv := colValue(np.leftTable, np.leftCol)
		if np.p.InTemp != "" {
			temp, ok := e.Temp(np.p.InTemp)
			if !ok {
				return false, fmt.Errorf("%w: temp table %s", relational.ErrNoSuchTable, np.p.InTemp)
			}
			col := np.p.InTempColumnOr()
			ref := ColRef{Column: col}
			if i := strings.IndexByte(col, '.'); i > 0 {
				ref = ColRef{Table: col[:i], Column: col[i+1:]}
			}
			ci, ok := temp.ColumnIndex(ref)
			if !ok {
				return false, fmt.Errorf("%w: %s.%s", relational.ErrNoSuchColumn, np.p.InTemp, np.p.InTempColumn)
			}
			for _, row := range temp.Rows {
				e.addRowsScanned(1)
				if lv.Equal(row[ci]) {
					return true, nil
				}
			}
			return false, nil
		}
		var rv relational.Value
		if np.rightTable != "" {
			rv = colValue(np.rightTable, np.rightCol)
		} else {
			rv = np.p.Right.Lit
		}
		return np.p.Op.Apply(lv, rv), nil
	}

	var joinErr error
	var recurse func(depth int) bool
	recurse = func(depth int) bool {
		if depth == len(joinOrder) {
			row := make([]relational.Value, len(slots))
			for i, sl := range slots {
				if sl.idx < 0 {
					row[i] = relational.Int_(int64(bind.rowids[sl.table]))
				} else {
					row[i] = bind.rows[sl.table][sl.idx]
				}
			}
			out.Rows = append(out.Rows, row)
			return true
		}
		key := joinOrder[depth]
		src := srcs[key]

		// Predicates fully determined once this relation binds.
		isBound := func(t string) bool {
			lt := strings.ToLower(t)
			if lt == key {
				return true
			}
			for d := 0; d < depth; d++ {
				if joinOrder[d] == lt {
					return true
				}
			}
			return false
		}
		var applicable []normPred
		// Equality keys usable for an index lookup on this relation.
		var eqCols []string
		var eqVals []relational.Value
		for _, np := range preds {
			leftHere := strings.EqualFold(np.leftTable, src.name())
			rightHere := np.rightTable != "" && strings.EqualFold(np.rightTable, src.name())
			if !isBound(np.leftTable) {
				continue
			}
			if np.rightTable != "" && !isBound(np.rightTable) {
				continue
			}
			// Determined by earlier relations only — already applied.
			if !leftHere && !rightHere {
				continue
			}
			applicable = append(applicable, np)
			if np.p.Op == relational.OpEQ && np.p.InTemp == "" && np.leftCol != rowidColumn && np.rightCol != rowidColumn {
				switch {
				case leftHere && np.rightTable == "":
					eqCols = append(eqCols, np.leftCol)
					eqVals = append(eqVals, np.p.Right.Lit)
				case leftHere && !rightHere:
					eqCols = append(eqCols, np.leftCol)
					eqVals = append(eqVals, colValue(np.rightTable, np.rightCol))
				case rightHere && !leftHere:
					eqCols = append(eqCols, np.rightCol)
					eqVals = append(eqVals, colValue(np.leftTable, np.leftCol))
				}
			}
		}

		tryRow := func(id relational.RowID, vals []relational.Value) bool {
			bind.rowids[key] = id
			bind.rows[key] = vals
			for _, np := range applicable {
				ok, err := evalPred(np)
				if err != nil {
					joinErr = err
					return false
				}
				if !ok {
					return true // skip row, keep scanning
				}
			}
			return recurse(depth + 1)
		}

		// Rowid path: a literal equality on the rowid pseudo-column
		// fetches the row directly, like Oracle's ROWID access path.
		if bs, isBase := src.(*baseSource); isBase && !s.NoIndex {
			for _, np := range applicable {
				if np.p.Op != relational.OpEQ || np.p.InTemp != "" || np.rightTable != "" {
					continue
				}
				if !strings.EqualFold(np.leftTable, src.name()) || np.leftCol != rowidColumn {
					continue
				}
				if np.p.Right.Lit.Kind != relational.KindInt {
					continue
				}
				id := relational.RowID(np.p.Right.Lit.Int)
				r, err := rd.Get(bs.def.Name, id)
				if err != nil {
					return true // no such row: empty result for this branch
				}
				e.addIndexProbes(1)
				tryRow(id, r.Values)
				return joinErr == nil
			}
		}

		// Index path: try progressively smaller column subsets so a
		// composite predicate can still hit a single-column index.
		if len(eqCols) > 0 && !s.NoIndex {
			if ids, rows, ok := src.lookup(rd, eqCols, eqVals); ok {
				for i := range ids {
					if !tryRow(ids[i], rows[i]) {
						return joinErr == nil
					}
				}
				return true
			}
			for i := range eqCols {
				if ids, rows, ok := src.lookup(rd, eqCols[i:i+1], eqVals[i:i+1]); ok {
					for j := range ids {
						if !tryRow(ids[j], rows[j]) {
							return joinErr == nil
						}
					}
					return true
				}
			}
		}
		// Semi-join path: an IN-temp predicate on an indexed column can
		// drive index lookups from the (small) materialized result
		// instead of scanning the base relation — the standard subquery
		// unnesting a relational engine performs for translated deletes
		// like the paper's U3.
		for _, np := range applicable {
			if s.NoIndex {
				break
			}
			if np.p.InTemp == "" || !strings.EqualFold(np.leftTable, src.name()) || np.leftCol == rowidColumn {
				continue
			}
			bs, isBase := src.(*baseSource)
			if !isBase || !rd.HasIndexOn(bs.def.Name, []string{np.leftCol}) {
				continue
			}
			temp, ok := e.Temp(np.p.InTemp)
			if !ok {
				continue
			}
			col := np.p.InTempColumnOr()
			ref := ColRef{Column: col}
			if i := strings.IndexByte(col, '.'); i > 0 {
				ref = ColRef{Table: col[:i], Column: col[i+1:]}
			}
			ci, ok := temp.ColumnIndex(ref)
			if !ok {
				continue
			}
			seen := map[string]bool{}
			for _, trow := range temp.Rows {
				v := trow[ci]
				k := v.EncodeKey()
				if seen[k] {
					continue
				}
				seen[k] = true
				ids, rows, ok := src.lookup(rd, []string{np.leftCol}, []relational.Value{v})
				if !ok {
					continue
				}
				for i := range ids {
					if !tryRow(ids[i], rows[i]) {
						return joinErr == nil
					}
				}
			}
			return true
		}
		cont := true
		src.scan(rd, func(id relational.RowID, vals []relational.Value) bool {
			cont = tryRow(id, vals)
			return cont && joinErr == nil
		})
		return joinErr == nil
	}
	recurse(0)
	if joinErr != nil {
		return nil, joinErr
	}
	bind.rows = nil
	return &out, nil
}

// InTempColumnOr defaults the IN-subquery column to the left column name.
func (np Predicate) InTempColumnOr() string {
	if np.InTempColumn != "" {
		return np.InTempColumn
	}
	return np.Left.Col.Column
}

// planJoinOrder scores relations and returns lowercase keys in greedy
// join order: start from the most constrained relation, then repeatedly
// pick a relation connected by an equi-join to the bound set (preferring
// indexed joins), tie-breaking on cardinality.
func planJoinOrder(e *Executor, srcs map[string]source, order []string, preds []normPred) []string {
	type scoreEntry struct {
		key   string
		score int
	}
	literalScore := func(key string) int {
		src := srcs[key]
		score := 0
		for _, np := range preds {
			if np.rightTable != "" || np.p.InTemp != "" {
				continue
			}
			if !strings.EqualFold(np.leftTable, src.name()) {
				continue
			}
			score += 10
			if np.p.Op == relational.OpEQ && e.DB.HasIndexOn(src.name(), []string{np.leftCol}) {
				score += 100
			}
		}
		return score
	}
	remaining := make(map[string]bool, len(order))
	for _, k := range order {
		remaining[k] = true
	}
	var result []string
	// Seed: highest literal score, ties to smaller cardinality.
	best := scoreEntry{score: -1}
	for _, k := range order {
		sc := literalScore(k)
		if sc > best.score || (sc == best.score && best.key != "" && srcs[k].rowCount() < srcs[best.key].rowCount()) {
			best = scoreEntry{key: k, score: sc}
		}
	}
	result = append(result, best.key)
	delete(remaining, best.key)
	bound := map[string]bool{best.key: true}
	for len(remaining) > 0 {
		next := scoreEntry{score: -1}
		for _, k := range order {
			if !remaining[k] {
				continue
			}
			src := srcs[k]
			sc := literalScore(k)
			for _, np := range preds {
				if np.rightTable == "" || np.p.Op != relational.OpEQ {
					continue
				}
				lk, rk := strings.ToLower(np.leftTable), strings.ToLower(np.rightTable)
				var joinCol string
				switch {
				case lk == k && bound[rk]:
					joinCol = np.leftCol
				case rk == k && bound[lk]:
					joinCol = np.rightCol
				default:
					continue
				}
				sc += 50
				if e.DB.HasIndexOn(src.name(), []string{joinCol}) {
					sc += 100
				}
			}
			if sc > next.score || (sc == next.score && next.key != "" && src.rowCount() < srcs[next.key].rowCount()) {
				next = scoreEntry{key: k, score: sc}
			}
		}
		result = append(result, next.key)
		delete(remaining, next.key)
		bound[next.key] = true
	}
	return result
}

// writeReader returns the Reader a DML statement's own row matching
// reads through: the transaction's overlay when one is given (so the
// statement sees the transaction's earlier writes), the latest
// committed state otherwise.
func (e *Executor) writeReader(t relational.WriteTxn) Reader {
	if t != nil {
		return t
	}
	return e.DB
}

// writer is the mutation surface shared by *relational.Txn and
// *relational.Database (whose methods autocommit); writeDML picks the
// target once so every DML entry point dispatches identically instead
// of re-implementing the nil-txn branch.
type writer interface {
	Insert(table string, values map[string]relational.Value) (relational.RowID, error)
	Delete(table string, id relational.RowID) (int, error)
	UpdateRow(table string, id relational.RowID, changes map[string]relational.Value) error
}

func (e *Executor) writeDML(t relational.WriteTxn) writer {
	if t != nil {
		return t
	}
	return e.DB
}

// ExecInsert executes a single-table insert through transaction t (nil
// autocommits), surfacing the engine's constraint errors (the hybrid
// strategy's conflict signal) and relational.ErrWriteConflict when the
// write loses a first-updater-wins race.
func (e *Executor) ExecInsert(t relational.WriteTxn, s *InsertStmt) (relational.RowID, error) {
	return e.writeDML(t).Insert(s.Table, s.Values)
}

// ExecDelete executes a single-table delete through transaction t (nil
// autocommits), returning the number of rows removed (0 is the
// engine's "zero tuples deleted" warning, not an error — exactly the
// hybrid-strategy signal for statement U3).
func (e *Executor) ExecDelete(t relational.WriteTxn, s *DeleteStmt) (int, error) {
	ids, err := e.matchRows(e.writeReader(t), s.Table, s.Where)
	if err != nil {
		return 0, err
	}
	w := e.writeDML(t)
	total := 0
	for _, id := range ids {
		n, err := w.Delete(s.Table, id)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ExecUpdate executes a single-table update through transaction t (nil
// autocommits), returning the number of rows modified.
func (e *Executor) ExecUpdate(t relational.WriteTxn, s *UpdateStmt) (int, error) {
	ids, err := e.matchRows(e.writeReader(t), s.Table, s.Where)
	if err != nil {
		return 0, err
	}
	w := e.writeDML(t)
	for _, id := range ids {
		if err := w.UpdateRow(s.Table, id, s.Set); err != nil {
			return 0, err
		}
	}
	return len(ids), nil
}

// matchRows evaluates a single-table WHERE clause against rd and
// returns matching row ids. The translated statements' dominant shape
// — one rowid equality, as probeRowIDs emits — fetches the row
// directly instead of spinning up the join machinery; everything else
// reuses the select path with a rowid projection.
func (e *Executor) matchRows(rd Reader, table string, where []Predicate) ([]relational.RowID, error) {
	if len(where) == 1 {
		p := where[0]
		if p.InTemp == "" && p.Op == relational.OpEQ &&
			p.Left.IsColumn && strings.EqualFold(p.Left.Col.Column, rowidColumn) &&
			(p.Left.Col.Table == "" || strings.EqualFold(p.Left.Col.Table, table)) &&
			!p.Right.IsColumn && !p.Right.IsParam && p.Right.Lit.Kind == relational.KindInt {
			id := relational.RowID(p.Right.Lit.Int)
			if _, err := rd.Get(table, id); err != nil {
				if errors.Is(err, relational.ErrNoSuchRow) {
					return nil, nil // no such row: statement matches nothing
				}
				return nil, err // e.g. no such table
			}
			e.addIndexProbes(1)
			return []relational.RowID{id}, nil
		}
	}
	sel := &SelectStmt{
		Project: []ColRef{{Table: table, Column: rowidColumn}},
		From:    []string{table},
		Where:   where,
	}
	rs, err := e.ExecSelectOn(rd, sel)
	if err != nil {
		return nil, err
	}
	ids := make([]relational.RowID, len(rs.Rows))
	for i, row := range rs.Rows {
		ids[i] = relational.RowID(row[0].Int)
	}
	return ids, nil
}
