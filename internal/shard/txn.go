package shard

import (
	"fmt"

	"repro/internal/relational"
)

// Txn is a cross-shard write transaction: a vector of per-shard
// sub-transactions acquired lazily on first touch, so a transaction
// confined to one shard (the common case once writers partition) costs
// exactly one engine transaction — no begin/rollback churn on the
// other N-1 shards' latches. Writes route by parent-shard co-location
// for children, PK hash for roots and id residue for point
// updates/deletes, and carry the cross-shard uniqueness probes a single
// shard cannot perform.
//
// Each sub-transaction reads a consistent snapshot of its shard, but
// the vector is cut shard-by-shard as shards are first touched, under
// the vector latch's read side — so a sub acquired later may see a
// cross-shard commit an earlier sub predates. Readers that need the
// all-or-nothing view of cross-shard transactions use DB.OpenSnapshot,
// which still pins every shard at one instant; inside a write
// transaction that window is the same write-skew exposure the
// scatter probes already document.
//
// Savepoints are vectors too: Savepoint marks every acquired
// sub-transaction and RollbackTo unwinds each to its mark, so the plan
// layer's per-item rollback in batched applies keeps working
// unchanged. A sub acquired after a savepoint had no operations at
// mark time, so its implied mark is zero (the engine's marks are
// operation counts).
//
// Commit routes by the shards the transaction dirtied: one shard commits
// through that shard's ordinary commit path (one latch); several commit
// as one record under every dirty shard's latch (commit.go). Both land in
// the group's one log and share its writer stage's fsyncs.
type Txn struct {
	db   *DB
	subs []*relational.Txn   // nil until the shard is first touched
	rds  []relational.Reader // acquired subs, pre-typed for the merge helpers
	// saves holds the savepoint vectors handed out so far; the mark
	// returned by Savepoint is an index into it.
	saves [][]int
}

// sub returns the shard's sub-transaction, beginning it on first
// touch. Acquisition happens under the vector latch's read side so it
// never observes a cross-shard commit mid-publish.
func (t *Txn) sub(s int) *relational.Txn {
	if t.subs[s] == nil {
		t.db.xmu.RLock()
		t.subs[s] = t.db.shards[s].Begin()
		t.db.xmu.RUnlock()
		t.rds[s] = t.subs[s]
	}
	return t.subs[s]
}

// readers acquires every shard's sub-transaction — scatter reads must
// see the transaction's own writes on every shard.
func (t *Txn) readers() []relational.Reader {
	for s := range t.subs {
		if t.subs[s] == nil {
			t.sub(s)
		}
	}
	return t.rds
}

// ---- Reader over the transaction's own view (own writes visible).

func (t *Txn) Schema() *relational.Schema { return t.db.schema }

func (t *Txn) Get(table string, id relational.RowID) (*relational.Row, error) {
	return t.sub(t.db.shardOf(id)).Get(table, id)
}

func (t *Txn) Scan(table string, fn func(*relational.Row) bool) error {
	return scanMerged(t.readers(), table, fn)
}

func (t *Txn) LookupEqual(table string, columns []string, values []relational.Value) ([]relational.RowID, error) {
	return idsMerged(t.readers(), table, columns, values)
}

func (t *Txn) LookupRows(table string, columns []string, values []relational.Value) ([]relational.Row, error) {
	return lookupMerged(t.readers(), table, columns, values)
}

func (t *Txn) HasIndexOn(table string, columns []string) bool {
	// Index presence is schema-static: answer from the shard itself
	// rather than acquiring a sub-transaction.
	return t.db.rds[0].HasIndexOn(table, columns)
}

func (t *Txn) RowCount(table string) int {
	n := 0
	for _, s := range t.readers() {
		n += s.RowCount(table)
	}
	return n
}

func (t *Txn) TotalRows() int {
	n := 0
	for _, s := range t.readers() {
		n += s.TotalRows()
	}
	return n
}

// ---- Writes.

// InsertRow routes the row, its values in declared column order, to
// its home shard, scatter-probes uniqueness on the others, then inserts
// through the home sub-transaction (whose local checks cover co-located
// constraints: same-shard keys, FK existence, NOT NULL, CHECK).
func (t *Txn) InsertRow(table string, row []relational.Value) (relational.RowID, error) {
	s := t.db.routeInsert(t.readers, table, row)
	if err := t.db.checkCrossUnique(t.readers, s, table, row, 0, nil); err != nil {
		return 0, err
	}
	return t.sub(s).InsertRow(table, row)
}

// Insert is InsertRow with the values named (relational.TableDef's
// AppendRow places them).
func (t *Txn) Insert(table string, values map[string]relational.Value) (relational.RowID, error) {
	td, ok := t.db.schema.Table(table)
	if !ok {
		return t.sub(0).Insert(table, values) // the engine's unknown-table error
	}
	row, err := td.AppendRow(nil, values)
	if err != nil {
		return 0, err
	}
	return t.InsertRow(table, row)
}

// Delete routes by id residue; referential actions (CASCADE, SET NULL)
// stay shard-local because children co-locate with their parents.
func (t *Txn) Delete(table string, id relational.RowID) (int, error) {
	return t.sub(t.db.shardOf(id)).Delete(table, id)
}

// UpdateRow routes by id residue and probes the other shards for any
// unique column set the change touches. A primary-key change on a
// hash-routed root table permanently disables the group's PK-probe
// shortcut (the row no longer lives on its hash shard).
func (t *Txn) UpdateRow(table string, id relational.RowID, changes map[string]relational.Value) error {
	s := t.db.shardOf(id)
	if t.db.n > 1 {
		if rt := t.db.routes[table]; rt != nil {
			if old, err := t.sub(s).Get(table, id); err == nil {
				eff := old.Values
				changed := make([]bool, len(eff))
				for c, v := range changes {
					if ci, ok := rt.td.ColumnIndex(c); ok {
						changed[ci] = true
						eff[ci] = v
					}
				}
				if rt.fk == nil && intersects(rt.pk.cols, changed) {
					t.db.pkMoved.Store(true)
				}
				if err := t.db.checkCrossUnique(t.readers, s, table, eff, id, changed); err != nil {
					return err
				}
			}
			// A lookup error (e.g. no such row) falls through so the
			// sub-transaction reports the canonical error.
		}
	}
	return t.sub(s).UpdateRow(table, id, changes)
}

// Savepoint marks every acquired sub-transaction and returns a vector
// mark. Unacquired shards carry an implicit mark of zero: the engine's
// marks are operation counts, and a sub begun after the savepoint had
// none at mark time.
func (t *Txn) Savepoint() int {
	v := make([]int, len(t.subs))
	for i, s := range t.subs {
		if s != nil {
			v[i] = s.Savepoint()
		}
	}
	t.saves = append(t.saves, v)
	return len(t.saves) - 1
}

// RollbackTo unwinds every acquired sub-transaction to the vector mark.
func (t *Txn) RollbackTo(mark int) error {
	if mark < 0 || mark >= len(t.saves) {
		return fmt.Errorf("shard: invalid savepoint %d (have %d)", mark, len(t.saves))
	}
	v := t.saves[mark]
	for i, s := range t.subs {
		if s == nil {
			continue
		}
		if err := s.RollbackTo(v[i]); err != nil {
			return err
		}
	}
	t.saves = t.saves[:mark]
	return nil
}

// Rollback undoes every acquired sub-transaction.
func (t *Txn) Rollback() error {
	var first error
	for _, s := range t.subs {
		if s == nil {
			continue
		}
		if err := s.Rollback(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Commit publishes through the single-shard fast path or as one record
// across the dirty shards, chosen by which shards are dirty.
func (t *Txn) Commit() error {
	return t.db.commitOne(t)
}

// finishExcept rolls back every acquired sub-transaction a commit did not
// consume — consumed, ascending, names the shards whose subs it finished
// (committed or undone) — releasing their version pins.
func (t *Txn) finishExcept(consumed []int) {
	for i, s := range t.subs {
		if len(consumed) > 0 && consumed[0] == i {
			consumed = consumed[1:]
		} else if s != nil {
			_ = s.Rollback() // read-only or untouched by the failed commit
		}
	}
}

var _ relational.WriteTxn = (*Txn)(nil)
