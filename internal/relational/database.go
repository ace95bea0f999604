package relational

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Row is one stored tuple. Values are positional, aligned with the
// table's column order.
type Row struct {
	ID     RowID
	Values []Value
}

// clone returns a deep copy of the row (values are value types already).
func (r *Row) clone() *Row {
	vals := make([]Value, len(r.Values))
	copy(vals, r.Values)
	return &Row{ID: r.ID, Values: vals}
}

// liveSeq is the end stamp of a version that has not been superseded or
// deleted: visible to every snapshot taken after its begin stamp.
const liveSeq = ^uint64(0)

// txnBit distinguishes a transaction claim from a committed sequence in
// a version's begin/end stamp: while a transaction is in flight, the
// versions it creates carry begin = txnMark(id) and the versions it
// supersedes or deletes carry end = txnMark(id). Commit's publish phase
// replaces the marks with the real commit sequence; rollback restores
// liveSeq or pops the version. liveSeq (all ones) is not a claim —
// isTxnMark excludes it — and claims compare greater than every real
// sequence, which is what keeps claimed-away versions visible to other
// readers and claimed-new versions invisible, with no extra branches in
// the visibility comparisons.
const txnBit = uint64(1) << 63

func txnMark(id uint64) uint64  { return id | txnBit }
func isTxnMark(s uint64) bool   { return s != liveSeq && s&txnBit != 0 }
func markOwner(s uint64) uint64 { return s &^ txnBit }

// rowVersion is one entry of a row's version chain, newest first. The
// row content is immutable after creation; begin, end and prev are
// atomics because writers stamp them (claims at write time, sequences
// at publish) while readers traverse the chain lock-free. Every version
// holds its values; a row with no version is page-only (pager.go): its
// one committed version is on its page and every reader sees it.
//
// Visibility: a snapshot pinned at commit sequence S sees the version
// with begin <= S < end. A version created by an in-flight transaction
// carries a begin claim (invisible to everyone but its owner); a
// version superseded or deleted by an in-flight transaction carries an
// end claim (still visible to everyone but its owner, because claims
// compare greater than any pinned sequence). Commit makes a
// transaction's versions visible atomically by replacing its claims
// with the next commit sequence and then advancing the database's
// commit sequence.
type rowVersion struct {
	row   Row // immutable after creation
	begin atomic.Uint64
	end   atomic.Uint64
	prev  atomic.Pointer[rowVersion]
}

// newVersion builds a live version with the given begin stamp.
func newVersion(row Row, begin uint64) *rowVersion {
	v := &rowVersion{row: row}
	v.begin.Store(begin)
	v.end.Store(liveSeq)
	return v
}

// visibleAt walks the chain from v and returns the version a
// committed-state reader at seq sees, or nil. Chains are newest-first;
// once a committed version with begin <= seq is passed, every older
// version ended at or before that begin, so the walk can stop.
// Uncommitted begin claims are skipped (invisible to everyone but
// their owner); uncommitted end claims compare greater than seq, so a
// claimed-away version stays visible until its claimant commits.
func (v *rowVersion) visibleAt(seq uint64) *rowVersion {
	for ; v != nil; v = v.prev.Load() {
		b := v.begin.Load()
		if isTxnMark(b) {
			continue
		}
		if b <= seq {
			if seq < v.end.Load() {
				return v
			}
			return nil
		}
	}
	return nil
}

// tableData is the storage for a single relation: row version chains,
// the page slots of checkpointed rows, and maintained hash indexes.
//
// An index maps the hash of a row's key to its id (see hashIndex).
// Entries are inserted when a version is created and removed only when
// the version is rolled back (uncommitted versions are invisible to
// everyone, so eager removal is safe) or reclaimed (no snapshot can see
// them anymore). A bucket is therefore a candidate set: it may hold ids
// whose current values no longer match the key — between a
// delete/update and the reclaim — and ids whose key only shares the
// probe's hash. Every index consumer re-verifies the resolved version's
// values against the probe, which makes index lookups exact for
// snapshot readers and under collisions alike.
type tableData struct {
	def     *TableDef
	rows    map[RowID]*rowVersion // head = newest version
	rowSlot map[RowID]uint32      // page slot of each checkpointed row; nil without a WAL (pager.go)
	order   []RowID               // insertion order, for deterministic scans
	indexes []*hashIndex
	pkIndex *hashIndex // nil when the table has no primary key
	fkCols  [][]int    // column positions of each of def.ForeignKeys, in order
	live    int        // heads a latest writer-side count sees (approximate under concurrency)
	dirty   bool       // order slice needs compaction (rows were reclaimed)

	// dirtyRows accumulates the ids of rows written since the last
	// checkpoint — the working set an incremental checkpoint serializes.
	// Marked at commit-stamp time and swapped out by Checkpoint, both
	// under commitMu (NOT the structural latch), so marking never races
	// the swap and open transactions at swap time mark into the fresh
	// set when they eventually commit.
	dirtyRows map[RowID]struct{}
}

// markDirtyRow records one row id into the dirty set (commitMu held,
// or single-goroutine recovery).
func (td *tableData) markDirtyRow(id RowID) {
	if td.dirtyRows == nil {
		td.dirtyRows = make(map[RowID]struct{})
	}
	td.dirtyRows[id] = struct{}{}
}

// Database is an in-memory relational database instance: a schema plus
// a versioned row store, indexes and transaction support.
//
// # Concurrency
//
// The engine is multi-writer, multi-reader with snapshot isolation and
// first-updater-wins write-write conflict detection. Any number of
// transactions may be open at once (Begin/Txn); each write claims its
// row under the structural latch, conflicting claims fail fast with
// ErrWriteConflict (no waiting, hence no deadlocks), and commits
// publish under a separate short commit latch — so independent
// transactions execute their probes, checks and row operations in
// parallel and serialize only for the microseconds of stamping; the
// write-ahead-log flush happens off the latch, in the WAL writer stage,
// which amortizes one fsync over every commit that queued meanwhile.
//
// The structural latch (mu) protects the row maps, order slices and
// index buckets. Writers hold it for one row operation; readers hold
// it while collecting structure references and never across callbacks,
// so reader and writer critical sections are both short and nested
// acquisition cannot occur.
//
// Consistency is layered on top by versioning. db.Snapshot() pins an
// immutable O(1) point-in-time view. Reads directly on the Database
// are "latest committed" reads: they resolve version chains at the
// current commit sequence, so uncommitted transaction state is never
// visible through them. A transaction's own probes read through the
// Txn (also a Reader), which overlays the transaction's writes on the
// snapshot pinned at its Begin.
//
// Old versions are retained until no live snapshot or transaction can
// see them and are then freed by Reclaim (piggybacked on commits and
// optionally run by a background reclaimer, see StartReclaimer).
type Database struct {
	schema    *Schema
	tables    map[string]*tableData
	nextRowID RowID
	// rowIDStride spaces allocated row ids (default 1). A shard group
	// gives shard i the progression i+1, i+1+N, i+1+2N, ... so ids are
	// globally unique and a row's shard is recoverable from its id
	// (see SetRowIDAlloc).
	rowIDStride RowID

	// mu is the structural latch protecting the row maps, order slices
	// and index buckets. Held per row operation, never across a
	// statement or transaction.
	mu sync.RWMutex

	// commitMu serializes the stamping phase of commits: assigning commit
	// sequences, replacing claim stamps and enqueueing the group's record
	// to the WAL writer stage (so queue order is sequence order). It is
	// never held during a transaction's reads, probes or row operations,
	// nor across a commit's fsync. A commit across the members of one log
	// takes theirs in member order.
	commitMu sync.Mutex

	// commitSeq is the last committed sequence number; snapshots and
	// transactions pin it. Commits advance it after all their version
	// stamps are placed, which is what makes each commit atomic to
	// concurrent snapshot readers.
	commitSeq atomic.Uint64

	// stampSeq is the last commit sequence ASSIGNED, always >= commitSeq.
	// A group's sequences are assigned and its claim stamps replaced
	// under commitMu (advancing stampSeq),
	// while commitSeq — the visibility gate — advances only after the
	// group's WAL record is fsynced, in strict group order. Between the
	// two, the group's versions exist but are invisible (their begins
	// exceed every reader's pinned sequence). Sequences of groups that
	// fail after stamping are never reissued in-process: a harmless gap.
	stampSeq atomic.Uint64

	// nextTxnID allocates transaction ids (claims embed them).
	nextTxnID atomic.Uint64

	// txnMu guards the active-transaction registry. The reclaim horizon
	// is the minimum over registered read sequences, so registering a
	// transaction and truncating version chains cannot interleave.
	txnMu sync.Mutex
	txns  map[*Txn]struct{}

	// snapMu guards the live-snapshot registry. Reclaim computes the
	// oldest pinned sequence under it, so registering a snapshot and
	// truncating version chains cannot interleave.
	snapMu sync.Mutex
	snaps  map[*Snapshot]struct{}

	snapshotsOpened   atomic.Int64
	versionsReclaimed atomic.Int64
	reclaims          atomic.Int64
	txnsActive        atomic.Int64
	txnsStarted       atomic.Int64
	conflicts         atomic.Int64
	groupCommits      atomic.Int64
	groupedTxns       atomic.Int64

	// versionsSinceReclaim counts versions created or killed since the
	// last reclaim; commits piggyback a reclaim pass when it overflows.
	versionsSinceReclaim atomic.Int64

	// statements counts DML statements since creation
	// (DBStats.StatementsExecuted).
	statements atomic.Int64

	// wal is the durable write-ahead log, attached by OpenWAL or OpenLog
	// (possibly shared with other members, this one's sub-records tagged
	// member); nil keeps the engine fully in-memory (commits then publish
	// inline under the commit latch). When set, every commit group's
	// record is written and fsynced by the WAL writer stage before the
	// group publishes, pager holds the database's own page store, and
	// walRecoveredTxns remembers how many committed transactions the
	// attach-time recovery replayed.
	wal              *WAL
	member           int
	pager            *pager
	walRecoveredTxns atomic.Int64
	checkpointSeq    atomic.Uint64 // the last durable page install's sequence
}

// Reader is the read-only surface shared by a live *Database, a pinned
// *Snapshot and an open *Txn. Layers that only consume data (the
// sqlexec SELECT machinery, the plan layer's probes, the server's
// statistics handlers) take a Reader so the same code path runs
// against the latest committed state, an immutable point-in-time view,
// or a transaction's own overlay.
type Reader interface {
	// Schema returns the database schema.
	Schema() *Schema
	// Get returns a copy of the row with the given id.
	Get(table string, id RowID) (*Row, error)
	// Scan visits every visible row of a table in insertion order. The
	// callback must not mutate the row; returning false stops the scan.
	Scan(table string, fn func(*Row) bool) error
	// LookupEqual returns the ids of visible rows whose named columns
	// equal the given values.
	LookupEqual(table string, columns []string, values []Value) ([]RowID, error)
	// LookupRows is LookupEqual returning each match with the values the
	// lookup resolved (faulting a paged row in once) to verify its key.
	// The values are immutable and must not be mutated by the caller: a
	// resident version's slice is aliased (writers copy on write), a
	// faulted row's slice is fresh.
	LookupRows(table string, columns []string, values []Value) ([]Row, error)
	// ValuesByName returns a visible row's values keyed by column name.
	ValuesByName(table string, id RowID) (map[string]Value, error)
	// HasIndexOn reports whether an index covers exactly the named
	// columns.
	HasIndexOn(table string, columns []string) bool
	// RowCount returns the number of visible rows in the table.
	RowCount(table string) int
	// TotalRows returns the number of visible rows across all tables.
	TotalRows() int
}

var (
	_ Reader = (*Database)(nil)
	_ Reader = (*Snapshot)(nil)
)

// DBStats is a point-in-time snapshot of the database's statistics.
// Each field is declared once: its stat tag names its /metrics family,
// kind and fold (see FoldStats) and its help tag describes it. Every
// field is read atomically (or under its own short mutex), so a snapshot
// may be taken while other goroutines are mutating the database. The
// log's own counters (segments, bytes, fsyncs, durable commit groups and
// their transactions, checkpoint passes, pipeline depth, the fsync and
// pause histograms) come from WAL.Stats: a member
// of a log shared with other databases reports zero for them.
type DBStats struct {
	StatementsExecuted int64 `json:"statements_executed" stat:"statements_executed_total,counter,sum" help:"DML statements executed."`
	SnapshotsActive    int64 `json:"snapshots_active" stat:"snapshots_active,gauge,sum" help:"MVCC snapshots currently pinned."`
	SnapshotsOpened    int64 `json:"snapshots_opened" stat:"snapshots_opened_total,counter,sum" help:"MVCC snapshots ever pinned."`
	VersionsReclaimed  int64 `json:"versions_reclaimed" stat:"versions_reclaimed_total,counter,sum" help:"Row versions freed by the MVCC reclaimer."`
	Reclaims           int64 `json:"reclaims" stat:"version_reclaims_total,counter,sum" help:"MVCC reclaim passes (inline and background)."`
	// CommitSeq of a shard group is the sum of its shards', the logical
	// clock SnapVec.Seq reports.
	CommitSeq   uint64 `json:"commit_seq" stat:"commit_seq,gauge,sum,shard" help:"Last committed MVCC sequence number."`
	TxnsActive  int64  `json:"txns_active" stat:"txns_active,gauge,sum" help:"Transactions currently open."`
	TxnsStarted int64  `json:"txns_started" stat:"txns_started_total,counter,sum" help:"Transactions ever begun (including autocommit statements)."`
	Conflicts   int64  `json:"conflicts" stat:"txn_conflicts_total,counter,sum,shard" help:"Write-write conflicts detected by the engine (first-updater-wins losers)."`
	// GroupCommits: with a WAL, one per writer-stage batch that was
	// fsynced (every commit that queued behind the previous fsync shares
	// it); without one, one per CommitGroup call. GroupedTxns/GroupCommits
	// is the mean commit-coalescing factor.
	GroupCommits            int64 `json:"group_commits" stat:"group_commits_total,counter,sum" help:"Commit groups published, one flush each (with a WAL: one per fsynced writer-stage batch, whichever shards its records commit on)."`
	GroupedTxns             int64 `json:"grouped_txns" stat:"grouped_txns_total,counter,sum" help:"Transactions committed through commit groups (a cross-shard transaction counts once)."`
	WALSegments             int64 `json:"wal_segments" stat:"wal_segments,gauge,sum" help:"Durable WAL segment files currently live (0 without -data-dir)."`
	WALBytes                int64 `json:"wal_bytes" stat:"wal_bytes_total,counter,sum" help:"Bytes appended to the view's durable WAL segments."`
	Fsyncs                  int64 `json:"fsyncs_total" stat:"wal_fsyncs_total,counter,sum" help:"fsync calls issued by the view's durable WAL (commit batches, segment seals, checkpoint installs)."`
	Checkpoints             int64 `json:"checkpoints_total" stat:"wal_checkpoints_total,counter,sum" help:"Checkpoint passes of the view's log."`
	RecoveryReplayedTxns    int64 `json:"recovery_replayed_txns" stat:"wal_recovery_replayed_txns,gauge,sum" help:"Committed transactions replayed from the WAL at startup."`
	WALPipelineDepth        int64 `json:"wal_pipeline_depth" stat:"wal_pipeline_depth,gauge,sum" help:"Commit groups queued or in flight in the WAL writer stage."`
	CheckpointDeltaChainLen int64 `json:"checkpoint_delta_chain_len" stat:"checkpoint_delta_chain_len,gauge,max,shard" help:"Page-directory install records since the last base fold (worst shard)."`
	// CheckpointLastPauseNs is the log's, reported by every member.
	CheckpointLastPauseNs  int64        `json:"checkpoint_last_pause_ns" stat:"checkpoint_last_pause_seconds,gauge,max,shard" help:"Duration of the most recent checkpoint pass (worst shard)."`
	PagecacheHits          int64        `json:"pagecache_hits" stat:"pagecache_hits_total,counter,sum,shard" help:"Buffer-pool page reads served from memory."`
	PagecacheMisses        int64        `json:"pagecache_misses" stat:"pagecache_misses_total,counter,sum,shard" help:"Buffer-pool page reads that faulted from disk."`
	PagecacheEvictions     int64        `json:"pagecache_evictions" stat:"pagecache_evictions_total,counter,sum,shard" help:"Buffer-pool frames evicted to stay within the budget."`
	PagesTotal             int64        `json:"pages_total" stat:"pages_total,gauge,sum,shard" help:"Live pages in the checkpoint page store."`
	CompactionPagesWritten int64        `json:"compaction_pages_written" stat:"compaction_pages_written_total,counter,sum" help:"Pages written by checkpoint passes and directory folds."`
	FsyncHist              obs.Snapshot `json:"-" stat:"wal_fsync_seconds,histogram,sum" help:"Durable WAL fsync duration per commit group (empty without -data-dir)."`
	CheckpointPauseHist    obs.Snapshot `json:"-" stat:"checkpoint_pause_seconds,histogram,sum" help:"Checkpoint pass duration — O(dirty) under incremental checkpoints (empty without -data-dir)."`
}

// Stats snapshots the statistics counters atomically; a database that
// is its log's only member folds in the log's.
func (db *Database) Stats() DBStats {
	db.snapMu.Lock()
	active := int64(len(db.snaps))
	db.snapMu.Unlock()
	st := DBStats{
		StatementsExecuted: db.statements.Load(),
		SnapshotsActive:    active,
		SnapshotsOpened:    db.snapshotsOpened.Load(),
		VersionsReclaimed:  db.versionsReclaimed.Load(),
		Reclaims:           db.reclaims.Load(),
		CommitSeq:          db.commitSeq.Load(),
		TxnsActive:         db.txnsActive.Load(),
		TxnsStarted:        db.txnsStarted.Load(),
		Conflicts:          db.conflicts.Load(),
		GroupCommits:       db.groupCommits.Load(),
		GroupedTxns:        db.groupedTxns.Load(),
	}
	w := db.wal
	if w == nil {
		return st
	}
	ps, ss := db.pager.pool.Stats(), db.pager.store.Stats()
	st.RecoveryReplayedTxns = db.walRecoveredTxns.Load()
	st.CheckpointDeltaChainLen = int64(ss.DirChainLen)
	st.CheckpointLastPauseNs = w.lastCkptPauseNs.Load()
	st.PagecacheHits, st.PagecacheMisses, st.PagecacheEvictions = int64(ps.Hits), int64(ps.Misses), int64(ps.Evictions)
	st.PagesTotal, st.CompactionPagesWritten = int64(ss.PagesTotal), int64(ss.PagesWritten)
	if len(w.members) == 1 {
		return FoldStats(st, w.Stats())
	}
	return st
}

// NewDatabase creates an empty database for the schema, building hash
// indexes for every primary key, UNIQUE column and foreign key.
func NewDatabase(schema *Schema) *Database {
	return &Database{
		schema:      schema,
		tables:      buildTableStorage(schema),
		nextRowID:   1,
		rowIDStride: 1,
		snaps:       make(map[*Snapshot]struct{}),
		txns:        make(map[*Txn]struct{}),
	}
}

// SetRowIDAlloc partitions row-id allocation: subsequent inserts draw
// ids from the arithmetic progression first, first+stride, first+2N, …
// A shard group calls it with (i+1, N) on shard i so ids are globally
// unique across shards and (id-1) mod N recovers a row's shard — the
// point-lookup fast path. Safe to call again after WAL recovery (which
// resets the id counter from replayed rows): the counter advances to
// the smallest progression member not below its current value, so ids
// are never reused.
func (db *Database) SetRowIDAlloc(first, stride RowID) {
	if stride < 1 {
		stride = 1
	}
	if first < 1 {
		first = 1
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.rowIDStride = stride
	next := db.nextRowID
	if next < first {
		next = first
	}
	if rem := (next - first) % stride; rem != 0 {
		next += stride - rem
	}
	db.nextRowID = next
}

// buildTableStorage constructs empty per-table storage with hash
// indexes for every primary key, UNIQUE column and foreign key. Shared
// by NewDatabase and WAL recovery (which rebuilds storage from scratch
// before replaying the checkpoint and log).
func buildTableStorage(schema *Schema) map[string]*tableData {
	tables := make(map[string]*tableData, len(schema.Tables()))
	for _, t := range schema.Tables() {
		td := &tableData{def: t, rows: make(map[RowID]*rowVersion)}
		if len(t.PrimaryKey) > 0 {
			cols := mustColumnIndexes(t, t.PrimaryKey)
			td.pkIndex = newHashIndex(indexName(t.Name, t.PrimaryKey), cols, true)
			td.indexes = append(td.indexes, td.pkIndex)
		}
		for _, c := range t.Columns {
			if c.Unique {
				cols := mustColumnIndexes(t, []string{c.Name})
				td.indexes = append(td.indexes, newHashIndex(indexName(t.Name, []string{c.Name}), cols, true))
			}
		}
		for _, fk := range t.ForeignKeys {
			cols := mustColumnIndexes(t, fk.Columns)
			td.fkCols = append(td.fkCols, cols)
			if !hasIndexOn(td, cols) {
				td.indexes = append(td.indexes, newHashIndex(indexName(t.Name, fk.Columns), cols, false))
			}
		}
		tables[strings.ToLower(t.Name)] = td
	}
	return tables
}

func hasIndexOn(td *tableData, cols []int) bool {
	for _, ix := range td.indexes {
		if ix.matchesColumns(cols) {
			return true
		}
	}
	return false
}

func mustColumnIndexes(t *TableDef, names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		idx, ok := t.ColumnIndex(n)
		if !ok {
			panic(fmt.Sprintf("relational: table %s has no column %s", t.Name, n))
		}
		out[i] = idx
	}
	return out
}

// Schema returns the database schema.
func (db *Database) Schema() *Schema { return db.schema }

func (db *Database) tableData(name string) (*tableData, error) {
	td, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return td, nil
}

// RowCount returns the number of rows a latest writer-side count sees
// (an O(1) approximation that includes uncommitted writes; precise
// counts go through a Snapshot or Txn).
func (db *Database) RowCount(table string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	td, err := db.tableData(table)
	if err != nil {
		return 0
	}
	return td.live
}

// TotalRows returns the number of rows across all tables, used by the
// benchmarks to report effective database size.
func (db *Database) TotalRows() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, td := range db.tables {
		n += td.live
	}
	return n
}

// Get returns a copy of the row with the given id, as of the latest
// committed state. Visibility is resolved under the read latch: an
// unregistered committed-state reader must not race the reclaimer
// (an exclusive-latch writer), which may otherwise truncate the very
// chain tail the resolution is about to walk.
func (db *Database) Get(table string, id RowID) (*Row, error) {
	db.mu.RLock()
	td, err := db.tableData(table)
	if err != nil {
		db.mu.RUnlock()
		return nil, err
	}
	// Resolve values before dropping the latch: an unregistered reader's
	// page fault must run under db.mu so it cannot race a quarantined
	// slot release (pager.go contract).
	seq := db.commitSeq.Load()
	r, err := db.copyRow(table, td, td.ref(id), func(v *rowVersion) *rowVersion { return v.visibleAt(seq) })
	db.mu.RUnlock()
	return r, err
}

// getRegistered is a registered reader's Get: the ref is read under the
// latch, resolved and faulted after it drops (pager.go contract).
func (db *Database) getRegistered(table string, id RowID, resolve func(*rowVersion) *rowVersion) (*Row, error) {
	db.mu.RLock()
	td, err := db.tableData(table)
	if err != nil {
		db.mu.RUnlock()
		return nil, err
	}
	r := td.ref(id)
	db.mu.RUnlock()
	return db.copyRow(table, td, r, resolve)
}

// copyRow returns a copy of the row a reader sees through r: a stored
// version's row is cloned, a faulted one is already the caller's.
func (db *Database) copyRow(table string, td *tableData, r rowRef, resolve func(*rowVersion) *rowVersion) (*Row, error) {
	row := db.see(td, r, resolve)
	if row == nil {
		return nil, fmt.Errorf("%w: %s rowid %d", ErrNoSuchRow, table, r.id)
	}
	if r.head != nil {
		row = row.clone()
	}
	return row, nil
}

// compactLocked drops reclaimed ids — neither a version nor a page slot
// — from the order slice. Called by the reclaimer (a writer) only;
// readers filter invisible ids instead.
func (td *tableData) compactLocked() {
	if !td.dirty {
		return
	}
	live := td.order[:0]
	for _, id := range td.order {
		if td.ref(id).found() {
			live = append(live, id)
		}
	}
	td.order = live
	td.dirty = false
}

// collectRefs gathers the refs of a table's rows in insertion order
// under the read latch, for a registered reader. Row content is
// immutable and the chain links are atomics, so callers resolve
// visibility, fault and run callbacks after the latch is released —
// scans never hold a lock across user code, which is what lets a reader
// interleave with writers without nested-latch deadlocks.
func (db *Database) collectRefs(table string) ([]rowRef, *tableData, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	td, err := db.tableData(table)
	if err != nil {
		return nil, nil, err
	}
	out := make([]rowRef, 0, len(td.order))
	for _, id := range td.order {
		if r := td.ref(id); r.found() {
			out = append(out, r)
		}
	}
	return out, td, nil
}

// scanRegistered is a registered reader's Scan: it visits the rows
// resolve sees, in insertion order, faulting page-only rows after the
// latch is dropped.
func (db *Database) scanRegistered(table string, resolve func(*rowVersion) *rowVersion, fn func(*Row) bool) error {
	refs, td, err := db.collectRefs(table)
	if err != nil {
		return err
	}
	for _, r := range refs {
		if row := db.see(td, r, resolve); row != nil && !fn(row) {
			return nil
		}
	}
	return nil
}

// idsRegistered is a registered reader's ScanIDs: the ids of the rows
// resolve sees, in insertion order; nothing is faulted.
func (db *Database) idsRegistered(table string, resolve func(*rowVersion) *rowVersion) []RowID {
	refs, _, err := db.collectRefs(table)
	if err != nil {
		return nil
	}
	out := make([]RowID, 0, len(refs))
	for _, r := range refs {
		if r.sees(resolve) {
			out = append(out, r.id)
		}
	}
	return out
}

// collectVisible gathers, under the read latch, the rows of a table
// visible at the current commit sequence, in insertion order.
// Resolving while the latch is held is what makes unregistered
// committed-state reads safe against the reclaimer: Reclaim is an
// exclusive-latch writer, so it cannot truncate a chain tail between
// the head fetch and the visibility walk. Page-only rows fault their
// values in here for the same reason — unregistered page faults must
// not race a quarantined slot release. The returned rows are immutable,
// so callers run callbacks after release.
func (db *Database) collectVisible(table string) ([]*Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	td, err := db.tableData(table)
	if err != nil {
		return nil, err
	}
	seq := db.commitSeq.Load()
	resolve := func(v *rowVersion) *rowVersion { return v.visibleAt(seq) }
	out := make([]*Row, 0, len(td.order))
	for _, id := range td.order {
		if row := db.see(td, td.ref(id), resolve); row != nil {
			out = append(out, row)
		}
	}
	return out, nil
}

// Scan visits every committed-visible row of a table in insertion
// order. The callback receives the stored row; it must not mutate it.
// Returning false stops the scan. The latch is not held while the
// callback runs.
func (db *Database) Scan(table string, fn func(*Row) bool) error {
	vs, err := db.collectVisible(table)
	if err != nil {
		return err
	}
	for _, r := range vs {
		if !fn(r) {
			return nil
		}
	}
	return nil
}

// LookupEqual returns the ids of committed-visible rows whose named
// columns equal the given values, using a hash index when one covers
// the columns and falling back to a scan otherwise. The returned ids
// are deterministic.
func (db *Database) LookupEqual(table string, columns []string, values []Value) ([]RowID, error) {
	return RowIDs(db.LookupRows(table, columns, values))
}

// LookupRows is LookupEqual returning each match with the values that
// verified it (see Reader). Resolution and faults run under the read
// latch: an unregistered reader must not race the reclaimer or a
// quarantined slot's release (pager.go).
func (db *Database) LookupRows(table string, columns []string, values []Value) ([]Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seq := db.commitSeq.Load() // under the latch: reclaim cannot outrun it
	return db.lookupLocked(table, columns, values, func(head *rowVersion) *rowVersion {
		return head.visibleAt(seq)
	})
}

// RowIDs keeps the ids of a lookup's rows: LookupEqual's answer from
// LookupRows'.
func RowIDs(rows []Row, err error) ([]RowID, error) {
	if err != nil || len(rows) == 0 {
		return nil, err
	}
	ids := make([]RowID, len(rows))
	for i := range rows {
		ids[i] = rows[i].ID
	}
	return ids, nil
}

// lookupCandidatesLocked begins the lookup core every reader of the
// database shares: it resolves the columns and returns the candidate
// ids — the covering index's bucket, else every id in scan order — as
// the store's own slice, readable only under db.mu (held by the caller
// in either mode). Each candidate then resolves to its ref and through
// the reader's visibility function, and the values it sees, faulted in
// once for a page-only row, are re-verified against the probe (buckets
// keep ids of versions this reader may not see) and returned with the
// id (appendMatch). lookupLocked finishes under the caller's latch;
// lookupRegistered drops it first. The column positions are appended to
// cols and a bucket's single id is returned in one: buffers the caller
// owns.
func (db *Database) lookupCandidatesLocked(table string, columns []string, values []Value, cols []int, one *[1]RowID) (*tableData, []int, []RowID, error) {
	td, err := db.tableData(table)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, c := range columns {
		idx, ok := td.def.ColumnIndex(c)
		if !ok {
			return nil, nil, nil, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, table, c)
		}
		cols = append(cols, idx)
	}
	if ix := td.findIndex(cols); ix != nil {
		return td, cols, ix.lookup(cols, values, one), nil
	}
	return td, cols, td.order, nil
}

// lookupLocked is the core for callers holding db.mu (either mode): the
// Database's latest read and the write paths' key checks.
func (db *Database) lookupLocked(table string, columns []string, values []Value, resolve func(*rowVersion) *rowVersion) ([]Row, error) {
	var colBuf [4]int
	var one [1]RowID
	td, cols, ids, err := db.lookupCandidatesLocked(table, columns, values, colBuf[:0], &one)
	if err != nil {
		return nil, err
	}
	out := newMatches(len(ids))
	for _, id := range ids {
		out = db.appendMatch(out, td, td.ref(id), resolve, cols, values)
	}
	return out, nil
}

// lookupRegistered is the core for a registered reader (Snapshot, Txn):
// candidate refs are collected under the read latch, then resolved and
// faulted after it is dropped.
func (db *Database) lookupRegistered(table string, columns []string, values []Value, resolve func(*rowVersion) *rowVersion) ([]Row, error) {
	var colBuf [4]int
	var one [1]RowID
	var refBuf [8]rowRef // most buckets: no allocation
	db.mu.RLock()
	td, cols, ids, err := db.lookupCandidatesLocked(table, columns, values, colBuf[:0], &one)
	if err != nil {
		db.mu.RUnlock()
		return nil, err
	}
	refs := refBuf[:0]
	if len(ids) > len(refBuf) {
		refs = make([]rowRef, 0, len(ids))
	}
	for _, id := range ids {
		refs = append(refs, td.ref(id))
	}
	db.mu.RUnlock()
	out := newMatches(len(refs))
	for _, r := range refs {
		out = db.appendMatch(out, td, r, resolve, cols, values)
	}
	return out, nil
}

// newMatches sizes a lookup's result for its candidates: an index
// bucket's are usually all matches, a scan's rarely.
func newMatches(candidates int) []Row {
	return make([]Row, 0, min(candidates, 16))
}

// appendMatch appends the row the reader sees through r when its values
// equal the probe values on cols. The values are a version's own slice
// (immutable), or a fresh one faulted from its page.
func (db *Database) appendMatch(out []Row, td *tableData, r rowRef, resolve func(*rowVersion) *rowVersion, cols []int, values []Value) []Row {
	row := db.see(td, r, resolve)
	if row == nil {
		return out
	}
	for i, c := range cols {
		if !row.Values[c].Equal(values[i]) {
			return out
		}
	}
	return append(out, *row)
}

// HasIndexOn reports whether an index covers exactly the named columns.
// The data-driven strategies consult this to mimic the paper's
// observation that Oracle indexes keys/foreign keys but not materialized
// probe results. Index structure is fixed at creation, so no latch is
// needed.
func (db *Database) HasIndexOn(table string, columns []string) bool {
	td, err := db.tableData(table)
	if err != nil {
		return false
	}
	cols := make([]int, len(columns))
	for i, c := range columns {
		idx, ok := td.def.ColumnIndex(c)
		if !ok {
			return false
		}
		cols[i] = idx
	}
	return td.findIndex(cols) != nil
}

func (td *tableData) findIndex(cols []int) *hashIndex {
	for _, ix := range td.indexes {
		if ix.matchesColumns(cols) {
			return ix
		}
	}
	return nil
}

// coerceRow converts a named-value map to positional values, applying
// type coercion and defaulting missing columns to NULL.
func (td *tableData) coerceRow(values map[string]Value) ([]Value, error) {
	out := make([]Value, len(td.def.Columns))
	for i := range out {
		out[i] = Null()
	}
	for name, v := range values {
		idx, ok := td.def.ColumnIndex(name)
		if !ok {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, td.def.Name, name)
		}
		coerced, err := v.CoerceTo(td.def.Columns[idx].Type)
		if err != nil {
			return nil, constraintErr(ErrTypeMismatch, td.def.Name, td.def.Columns[idx].Name, err.Error())
		}
		out[idx] = coerced
	}
	return out, nil
}

// checkLocalConstraints enforces NOT NULL and CHECK column constraints.
func (td *tableData) checkLocalConstraints(values []Value) error {
	for i, c := range td.def.Columns {
		v := values[i]
		if v.IsNull() && td.def.IsNotNullColumn(c.Name) {
			return constraintErr(ErrNotNull, td.def.Name, c.Name, "")
		}
		if c.NotNull && !v.IsNull() && v.Kind == KindString && strings.TrimSpace(v.Str) == "" {
			// Oracle treats empty strings as NULL; the paper's u1
			// (empty <title/>) violates NOT NULL through this rule.
			return constraintErr(ErrNotNull, td.def.Name, c.Name, "empty string treated as NULL")
		}
		for _, chk := range c.Checks {
			if !chk.Holds(v) {
				return constraintErr(ErrCheck, td.def.Name, c.Name, chk.String()+" failed for "+v.String())
			}
		}
	}
	return nil
}

// writeConflict counts and wraps a first-updater-wins loss.
func (db *Database) writeConflict(table string, detail string) error {
	db.conflicts.Add(1)
	return fmt.Errorf("%w: table %s: %s", ErrWriteConflict, table, detail)
}

// writeTarget resolves the version a write by t addresses: the row's
// current head when it is writable by t. It returns ErrWriteConflict
// when the head is claimed by another in-flight transaction or was
// written by a transaction that committed after t's read sequence
// (first-updater-wins), and (nil, nil) when the row is simply not a
// live row from t's perspective (deleted before its snapshot, or
// deleted by t itself). Callers hold the write latch.
func (db *Database) writeTarget(t *Txn, table string, id RowID, head *rowVersion) (*rowVersion, error) {
	if head == nil {
		return nil, nil
	}
	b := head.begin.Load()
	if isTxnMark(b) {
		if markOwner(b) != t.id {
			return nil, db.writeConflict(table, fmt.Sprintf("rowid %d is claimed by an in-flight transaction", id))
		}
		if isTxnMark(head.end.Load()) {
			return nil, nil // t already deleted its own version
		}
		return head, nil
	}
	e := head.end.Load()
	if isTxnMark(e) {
		if markOwner(e) == t.id {
			return nil, nil // t delete-stamped the committed version
		}
		return nil, db.writeConflict(table, fmt.Sprintf("rowid %d is claimed by an in-flight transaction", id))
	}
	if e != liveSeq {
		if e > t.readSeq {
			// Deleted by a transaction that committed after t began:
			// conflict, so a retry re-probes against the new state
			// instead of silently acting on a vanished row.
			return nil, db.writeConflict(table, fmt.Sprintf("rowid %d was deleted by a newer committed transaction", id))
		}
		return nil, nil // committed-dead before t's snapshot
	}
	if b > t.readSeq {
		return nil, db.writeConflict(table, fmt.Sprintf("rowid %d was modified by a newer committed transaction", id))
	}
	return head, nil
}

// checkUniqueness enforces the primary key and UNIQUE columns for a
// write by t. exclude skips one row id (the row being updated, so it
// does not collide with itself). A duplicate held by the committed
// state or by t itself is a constraint violation; a duplicate held (or
// being released) by another in-flight transaction is a write-write
// conflict — the retry resolves against that transaction's outcome.
// Callers hold the write latch.
func (db *Database) checkUniqueness(t *Txn, td *tableData, values []Value, exclude RowID) error {
	for _, ix := range td.indexes {
		if !ix.unique {
			continue
		}
		key, ok := ix.keyFor(values)
		if !ok {
			continue
		}
		dupErr := func() error {
			kind := ErrUnique
			if ix == td.pkIndex {
				kind = ErrPrimaryKey
			}
			names := make([]string, len(ix.columns))
			for i, c := range ix.columns {
				names[i] = td.def.Columns[c].Name
			}
			return constraintErr(kind, td.def.Name, strings.Join(names, ","), "duplicate key")
		}
		match := func(vals []Value) bool {
			for _, c := range ix.columns {
				if !vals[c].Equal(values[c]) {
					return false
				}
			}
			return true
		}
		var one [1]RowID
		for _, id := range ix.bucket(key, &one) {
			if id == exclude {
				continue
			}
			r := td.ref(id)
			if r.slot != 0 {
				// Page-only: committed before every reader, t included.
				if match(db.see(td, r, nil).Values) { // faults; write latch held
					return dupErr()
				}
				continue
			}
			// Walk from the head to the newest committed version: the
			// in-flight layer decides conflicts, the committed layer
			// decides duplicates, and older history is irrelevant.
			for v := r.head; v != nil; v = v.prev.Load() {
				b := v.begin.Load()
				e := v.end.Load()
				if isTxnMark(b) {
					if markOwner(b) == t.id {
						if e == liveSeq && match(v.row.Values) {
							return dupErr() // t's own uncommitted duplicate
						}
						continue // superseded/deleted own version
					}
					if match(v.row.Values) {
						return db.writeConflict(td.def.Name,
							fmt.Sprintf("duplicate key inserted by an in-flight transaction (rowid %d)", id))
					}
					continue
				}
				// Newest committed version: judge and stop walking.
				if e == liveSeq {
					if match(v.row.Values) {
						if b > t.readSeq {
							// Stamped after t's snapshot — under the pipelined
							// commit path possibly not even published yet (and
							// still able to roll back on an fsync failure), so
							// never a hard duplicate: first-updater-wins, the
							// retry resolves against the final outcome.
							return db.writeConflict(td.def.Name,
								fmt.Sprintf("duplicate key committed by a newer transaction (rowid %d)", id))
						}
						return dupErr()
					}
				} else if isTxnMark(e) && markOwner(e) != t.id && match(v.row.Values) {
					// Committed-live but claimed by another in-flight
					// transaction (delete or key change): first-updater-wins.
					return db.writeConflict(td.def.Name,
						fmt.Sprintf("key held by rowid %d is being released by an in-flight transaction", id))
				}
				break
			}
		}
	}
	return nil
}

// checkForeignKeys enforces that every non-NULL FK value references a
// row the writing transaction can see. (Like classic snapshot
// isolation without FK locks, a concurrently committed delete of the
// parent can produce write skew; ROADMAP records the deferral.)
func (db *Database) checkForeignKeys(t *Txn, td *tableData, values []Value) error {
	for i, fk := range td.def.ForeignKeys {
		var valBuf [4]Value
		vals := valBuf[:0]
		for _, c := range td.fkCols[i] {
			if values[c].IsNull() {
				vals = nil // SQL: NULL FK components opt out of the check
				break
			}
			vals = append(vals, values[c])
		}
		if vals == nil {
			continue
		}
		refs, err := db.lookupLocked(fk.RefTable, fk.RefColumns, vals, t.resolve)
		if err != nil {
			return err
		}
		if len(refs) == 0 {
			return constraintErr(ErrForeignKey, td.def.Name, strings.Join(fk.Columns, ","),
				fmt.Sprintf("no row in %s matches", fk.RefTable))
		}
	}
	return nil
}

// Insert adds a row in an implicit single-statement transaction
// (autocommit). See Txn.Insert for the transactional form.
func (db *Database) Insert(table string, values map[string]Value) (RowID, error) {
	t := db.Begin()
	id, err := db.txnInsert(t, table, values)
	if err != nil {
		_ = t.Rollback()
		return 0, err
	}
	return id, t.Commit()
}

// txnInsert is the insert core, writing through transaction t.
func (db *Database) txnInsert(t *Txn, table string, values map[string]Value) (RowID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, err := db.tableData(table)
	if err != nil {
		return 0, err
	}
	db.statements.Add(1)
	row, err := td.coerceRow(values)
	if err != nil {
		return 0, err
	}
	if err := td.checkLocalConstraints(row); err != nil {
		return 0, err
	}
	if err := db.checkUniqueness(t, td, row, 0); err != nil {
		return 0, err
	}
	if err := db.checkForeignKeys(t, td, row); err != nil {
		return 0, err
	}
	id := db.nextRowID
	db.nextRowID += db.rowIDStride
	v := newVersion(Row{ID: id, Values: row}, txnMark(t.id))
	td.rows[id] = v
	td.order = append(td.order, id)
	td.live++
	db.versionsSinceReclaim.Add(1)
	for _, ix := range td.indexes {
		ix.insert(id, row)
	}
	t.recordInsert(table, id, v)
	return id, nil
}

// Delete removes the row with the given id in an implicit
// single-statement transaction (autocommit), applying the delete policy
// of every foreign key referencing this table: CASCADE deletes the
// referencing rows transitively, SET NULL nulls the referencing columns
// (rejecting if they are NOT NULL), RESTRICT rejects the delete. The
// statement is atomic: a rejected cascade leaves nothing deleted. It
// returns the number of rows deleted (including cascades). See
// Txn.Delete for the transactional form.
func (db *Database) Delete(table string, id RowID) (int, error) {
	t := db.Begin()
	n, err := db.txnDelete(t, table, id)
	if err != nil {
		_ = t.Rollback()
		return 0, err
	}
	return n, t.Commit()
}

// txnDelete is the delete core, writing through transaction t.
func (db *Database) txnDelete(t *Txn, table string, id RowID) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.statements.Add(1)
	return db.deleteRowLocked(t, table, id)
}

func (db *Database) deleteRowLocked(t *Txn, table string, id RowID) (int, error) {
	td, err := db.tableData(table)
	if err != nil {
		return 0, err
	}
	// Materialize a page-only row before taking its head: the claim
	// stamps and undo log must land on a version that stays installed.
	v, err := db.writeTarget(t, table, id, db.materializeLocked(td, id))
	if err != nil {
		return 0, err
	}
	if v == nil {
		return 0, nil // DELETE of a missing row is a no-op warning, not an error
	}
	deleted := 0
	// Resolve referential actions before removing the row so RESTRICT
	// can reject atomically within this statement.
	for _, ref := range db.schema.ReferencingKeys(table) {
		refVals := make([]Value, len(ref.FK.RefColumns))
		skip := false
		for i, rc := range ref.FK.RefColumns {
			ci, ok := td.def.ColumnIndex(rc)
			if !ok {
				return deleted, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, table, rc)
			}
			refVals[i] = v.row.Values[ci]
			if refVals[i].IsNull() {
				skip = true
			}
		}
		if skip {
			continue
		}
		refs, err := db.lookupLocked(ref.Table.Name, ref.FK.Columns, refVals, t.resolve)
		if err != nil {
			return deleted, err
		}
		if len(refs) == 0 {
			continue
		}
		switch ref.FK.OnDelete {
		case DeleteRestrict:
			return deleted, constraintErr(ErrRestrict, table, "",
				fmt.Sprintf("%d referencing rows in %s", len(refs), ref.Table.Name))
		case DeleteCascade:
			for _, r := range refs {
				n, err := db.deleteRowLocked(t, ref.Table.Name, r.ID)
				deleted += n
				if err != nil {
					return deleted, err
				}
			}
		case DeleteSetNull:
			nulls := make(map[string]Value, len(ref.FK.Columns))
			for _, c := range ref.FK.Columns {
				nulls[c] = Null()
			}
			for _, r := range refs {
				if err := db.updateRowLocked(t, ref.Table.Name, r.ID, nulls); err != nil {
					return deleted, err
				}
			}
		}
	}
	// The row may have been cascade-deleted through a cycle; re-check.
	v, err = db.writeTarget(t, table, id, td.rows[id])
	if err != nil {
		return deleted, err
	}
	if v == nil {
		return deleted, nil
	}
	// MVCC delete: claim the head with the transaction's end mark.
	// Index entries and the version itself stay until no reader can see
	// them; commit publishes the real sequence, the reclaimer frees
	// both.
	v.end.Store(txnMark(t.id))
	td.live--
	db.versionsSinceReclaim.Add(1)
	deleted++
	t.recordDelete(table, id, v)
	return deleted, nil
}

// UpdateRow modifies the named columns of a row in an implicit
// single-statement transaction (autocommit), re-checking NOT NULL,
// CHECK, uniqueness and foreign keys for the new values. The previous
// values survive as an older version in the row's chain until no
// reader can see them. See Txn.UpdateRow for the transactional form.
func (db *Database) UpdateRow(table string, id RowID, changes map[string]Value) error {
	t := db.Begin()
	if err := db.txnUpdate(t, table, id, changes); err != nil {
		_ = t.Rollback()
		return err
	}
	return t.Commit()
}

// txnUpdate is the update core, writing through transaction t.
func (db *Database) txnUpdate(t *Txn, table string, id RowID, changes map[string]Value) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.updateRowLocked(t, table, id, changes)
}

func (db *Database) updateRowLocked(t *Txn, table string, id RowID, changes map[string]Value) error {
	td, err := db.tableData(table)
	if err != nil {
		return err
	}
	db.statements.Add(1)
	v, err := db.writeTarget(t, table, id, db.materializeLocked(td, id)) // see deleteRowLocked
	if err != nil {
		return err
	}
	if v == nil {
		return fmt.Errorf("%w: %s rowid %d", ErrNoSuchRow, table, id)
	}
	newVals := make([]Value, len(v.row.Values))
	copy(newVals, v.row.Values)
	for name, val := range changes {
		idx, ok := td.def.ColumnIndex(name)
		if !ok {
			return fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, table, name)
		}
		coerced, err := val.CoerceTo(td.def.Columns[idx].Type)
		if err != nil {
			return constraintErr(ErrTypeMismatch, table, name, err.Error())
		}
		newVals[idx] = coerced
	}
	if err := td.checkLocalConstraints(newVals); err != nil {
		return err
	}
	if err := db.checkUniqueness(t, td, newVals, id); err != nil {
		return err
	}
	if err := db.checkForeignKeys(t, td, newVals); err != nil {
		return err
	}
	nv := newVersion(Row{ID: id, Values: newVals}, txnMark(t.id))
	nv.prev.Store(v)
	v.end.Store(txnMark(t.id))
	td.rows[id] = nv
	db.versionsSinceReclaim.Add(1)
	for _, ix := range td.indexes {
		ix.insert(id, newVals) // buckets are id-sets: unchanged keys dedupe
	}
	t.recordUpdate(table, id, nv)
	return nil
}

// removeVersionEntries drops a discarded version's index entries,
// keeping any entry whose key is still produced by a version remaining
// in the chain (kept, walked towards older). Used when rolling back an
// uncommitted version (invisible to everyone, so eager removal is
// safe) and by the reclaimer.
func removeVersionEntries(td *tableData, id RowID, dropped *rowVersion, kept *rowVersion) {
	for _, ix := range td.indexes {
		key, ok := ix.keyFor(dropped.row.Values)
		if !ok {
			continue
		}
		shared := false
		for k := kept; k != nil; k = k.prev.Load() {
			if kk, ok2 := ix.keyFor(k.row.Values); ok2 && kk == key {
				shared = true
				break
			}
		}
		if !shared {
			ix.removeKey(key, id)
		}
	}
}

// rowValues keys a fetched row's values by the table's column names;
// the shared tail of every reader's ValuesByName.
func (db *Database) rowValues(table string, r *Row) (map[string]Value, error) {
	td, err := db.tableData(table)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Value, len(r.Values))
	for i, c := range td.def.Columns {
		out[c.Name] = r.Values[i]
	}
	return out, nil
}

// ValuesByName returns a committed-visible row's values keyed by column
// name.
func (db *Database) ValuesByName(table string, id RowID) (map[string]Value, error) {
	r, err := db.Get(table, id)
	if err != nil {
		return nil, err
	}
	return db.rowValues(table, r)
}

// SortedTableNames returns the table names sorted alphabetically (used
// by deterministic dumps).
func (db *Database) SortedTableNames() []string {
	names := make([]string, 0, len(db.tables))
	for _, td := range db.tables {
		names = append(names, td.def.Name)
	}
	sort.Strings(names)
	return names
}
