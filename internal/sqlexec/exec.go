package sqlexec

import (
	"errors"
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
// ExecUpdate, Stmt.Exec and the join-view writes) runs in the caller's
// relational.WriteTxn: a multi-row or multi-table statement commits
// with the rest of the caller's work or not at all, concurrent callers
// each write through their own transaction, and the engine detects
// write-write conflicts (relational.ErrWriteConflict,
// first-updater-wins).
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
	RowsScanned int64 `json:"rows_scanned" stat:"rows_scanned_total,counter,sum" help:"Rows visited by table scans."`
	// IndexProbes counts index lookups issued.
	IndexProbes int64 `json:"index_probes" stat:"index_probes_total,counter,sum" help:"Index lookups issued."`
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

// ExecInsert executes a single-table insert through transaction t,
// surfacing the engine's constraint errors (the hybrid strategy's
// conflict signal) and relational.ErrWriteConflict when the write loses
// a first-updater-wins race.
func (e *Executor) ExecInsert(t relational.WriteTxn, s *InsertStmt) (relational.RowID, error) {
	return t.Insert(s.Table, s.Values)
}

// ExecDelete executes a single-table delete through transaction t,
// returning the number of rows removed (0 is the engine's "zero tuples
// deleted" warning, not an error — exactly the hybrid-strategy signal
// for statement U3). The WHERE clause reads through t, so it sees the
// transaction's earlier writes.
func (e *Executor) ExecDelete(t relational.WriteTxn, s *DeleteStmt) (int, error) {
	ids, err := e.matchRows(t, s.Table, s.Where)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, id := range ids {
		n, err := t.Delete(s.Table, id)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ExecUpdate executes a single-table update through transaction t,
// returning the number of rows modified.
func (e *Executor) ExecUpdate(t relational.WriteTxn, s *UpdateStmt) (int, error) {
	ids, err := e.matchRows(t, s.Table, s.Where)
	if err != nil {
		return 0, err
	}
	for _, id := range ids {
		if err := t.UpdateRow(s.Table, id, s.Set); err != nil {
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
