package relational

import "time"

// WriteTxn is the transactional write surface the upper layers (sqlexec
// DML, the plan layer's apply pipeline) drive. *Txn implements it for a
// single database; internal/shard implements it as a vector of per-shard
// sub-transactions so the same apply code commits across shards.
type WriteTxn interface {
	Reader
	// InsertRow adds a row, its values in declared column order,
	// through the transaction; Insert is the same with the values
	// named (a column left out is NULL).
	InsertRow(table string, row []Value) (RowID, error)
	Insert(table string, values map[string]Value) (RowID, error)
	// Delete removes a row (with referential actions) through the
	// transaction, returning the number of rows deleted.
	Delete(table string, id RowID) (int, error)
	// UpdateRow modifies the named columns of a row.
	UpdateRow(table string, id RowID, changes map[string]Value) error
	// Savepoint marks the current position in the undo log; RollbackTo
	// undoes everything logged after the mark, keeping the transaction
	// open.
	Savepoint() int
	RollbackTo(mark int) error
	// Rollback undoes everything; Commit publishes atomically.
	Rollback() error
	Commit() error
}

// Snap is a pinned point-in-time read view. *Snapshot implements it for
// a single database; internal/shard pins one snapshot per shard under a
// latch that excludes cross-shard commits, so the vector is consistent.
type Snap interface {
	Reader
	// Close releases the snapshot's pin on old row versions.
	Close()
	// VersionStats reports version-chain statistics at the snapshot.
	VersionStats() VersionStats
}

// ShardStat is one shard's statistics rollup. An unsharded Database
// reports itself as shard 0 of 1.
type ShardStat struct {
	// Shard is the shard index (0-based), the label of its series.
	Shard int `json:"shard" stat:"shard,label"`
	DBStats
	// Rows counts the shard's visible rows across all tables.
	Rows int `json:"rows_total" stat:"rows_total,gauge,sum,shard" help:"Visible rows stored on the shard."`
}

// Engine is the storage surface the executor stack is written against:
// everything a *Database offers that the sqlexec/plan/server layers
// consume, so a hash-partitioned shard group (internal/shard) can stand
// in for a single database. Methods whose concrete receivers return
// concrete types (Begin, Snapshot) appear here under distinct names
// (BeginTxn, OpenSnapshot) returning the interface forms.
type Engine interface {
	Reader
	// BeginTxn starts a write transaction: every write goes through one.
	BeginTxn() WriteTxn
	// OpenSnapshot pins a consistent point-in-time read view.
	OpenSnapshot() Snap
	// CommitShared commits a batch of transactions, returning one error
	// slot per member (nil = committed); members may succeed and fail
	// independently when they land on different shards. The apply path
	// does not use it — it calls WriteTxn.Commit and lets the WAL writer
	// stage share flushes; it remains for callers holding several
	// finished transactions at once.
	CommitShared(txns []WriteTxn) []error
	// Stats folds every statistic (see obs.FoldStats); ShardStats reports
	// one rollup per storage shard (one for a plain Database).
	Stats() DBStats
	ShardStats() []ShardStat
	// LastFsyncNanos is the log's most recent commit-path fsync, read by
	// a traced apply right after its Commit (a full Stats would take
	// every statistics lock on the hot path).
	LastFsyncNanos() int64
	// Maintenance.
	StartReclaimer(interval time.Duration) (stop func())
	StartCheckpointer(interval time.Duration) (stop func())
	CloseWAL() error
}

// BeginTxn starts a transaction, typed as the WriteTxn interface.
func (db *Database) BeginTxn() WriteTxn { return db.Begin() }

// OpenSnapshot pins a snapshot, typed as the Snap interface.
func (db *Database) OpenSnapshot() Snap { return db.Snapshot() }

// CommitShared publishes the batch as one commit group (CommitGroup);
// every member shares the group's fate, so the single error is
// broadcast to all slots.
func (db *Database) CommitShared(txns []WriteTxn) []error {
	live := make([]*Txn, len(txns))
	for i, t := range txns {
		if t != nil {
			live[i] = t.(*Txn)
		}
	}
	err := db.CommitGroup(live...)
	out := make([]error, len(txns))
	for i := range out {
		out[i] = err
	}
	return out
}

// ShardStats reports the database as shard 0 of 1.
func (db *Database) ShardStats() []ShardStat {
	return []ShardStat{{Shard: 0, DBStats: db.Stats(), Rows: db.TotalRows()}}
}

var (
	_ Engine   = (*Database)(nil)
	_ WriteTxn = (*Txn)(nil)
	_ Snap     = (*Snapshot)(nil)
)
