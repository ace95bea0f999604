package relational

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Row is one stored tuple as a reader receives it. Values are
// positional, aligned with the table's column order, and decoded fresh
// for each read: the caller owns them.
type Row struct {
	ID     RowID
	Values []Value
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

// rowVersion is one entry of a row's version chain, newest first. Its
// row is its payload (encodeRowPayload), the bytes its WAL after-image
// and its page hold too; readers decode it (see). The payload is
// immutable after creation; begin, end and prev are atomics because
// writers stamp them (claims at write time, sequences at publish) while
// readers traverse the chain lock-free. A row with no version is
// page-only (pager.go): its one committed version is on its page and
// every reader sees it.
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
	payload []byte // immutable after creation
	begin   atomic.Uint64
	end     atomic.Uint64
	prev    atomic.Pointer[rowVersion]
}

// newVersion builds a live version of the payload with the given begin
// stamp; the version owns the payload from then on.
func newVersion(payload []byte, begin uint64) *rowVersion {
	v := &rowVersion{payload: payload}
	v.begin.Store(begin)
	v.end.Store(liveSeq)
	return v
}

// values decodes the version's row, appending to dst[:0] (nil: a fresh
// slice). The payload is the engine's own: a decode error panics.
func (v *rowVersion) values(dst []Value) []Value {
	vals, err := decodeRowPayload(dst, v.payload)
	if err != nil {
		panic(fmt.Sprintf("relational: version payload: %v", err))
	}
	return vals
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
// an id column naming every row, resident or page-only, with a slot
// column beside it (pager.go), and maintained hash indexes. The id
// column is strictly ascending and is the scan order: ids are allocated
// ascending under the write latch, so an insert appends (add), and
// reclaimed or rolled-back ids stay until compactLocked drops them.
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
	key     string                // def.Name lower-cased: the db.tables key, a page's table name
	rows    map[RowID]*rowVersion // head = newest version
	ids     []RowID               // every row's id, ascending: the scan order
	slots   []uint32              // parallel to ids: 1 + page slot, 0 = none; nil without a pager (pager.go)
	indexes []*hashIndex
	want    []bool     // the columns some index reads, up to the last one (decodeColumns)
	pkIndex *hashIndex // nil when the table has no primary key
	fkCols  [][]int    // column positions of each of def.ForeignKeys, in order
	fkRefs  []fkRef    // what each of def.ForeignKeys references, in order
	live    int        // heads a latest writer-side count sees (approximate under concurrency)
	dirty   bool       // the id column needs compaction (rows were reclaimed)

	// dirtyRows accumulates the ids of rows written since the last
	// checkpoint — the working set an incremental checkpoint serializes.
	// Marked at commit-stamp time and swapped out by Checkpoint, both
	// under commitMu (NOT the structural latch), so marking never races
	// the swap and open transactions at swap time mark into the fresh
	// set when they eventually commit. The set is a list in marking
	// order; a pass sorts it and drops repeats (sortedIDs).
	dirtyRows []RowID
}

// fkRef is the table a foreign key references and its referenced
// columns' positions there.
type fkRef struct {
	td   *tableData
	cols []int
}

// markDirtyRow records one row id into the dirty set (commitMu held,
// or single-goroutine recovery). A list about to grow past a few
// hundred ids drops its repeats first, so rows written over and over
// between passes keep it within about twice the distinct rows written.
func (td *tableData) markDirtyRow(id RowID) {
	if n := len(td.dirtyRows); n >= 256 && n == cap(td.dirtyRows) {
		td.dirtyRows = sortedIDs(td.dirtyRows)
	}
	td.dirtyRows = append(td.dirtyRows, id)
}

// sortedIDs sorts ids in place, ascending, and drops repeats.
func sortedIDs(ids []RowID) []RowID {
	slices.Sort(ids)
	return slices.Compact(ids)
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
// The structural latch (mu) protects the row maps, id columns and
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

	// mu is the structural latch protecting the row maps, id columns
	// and index buckets. Held per row operation, never across a
	// statement or transaction.
	mu sync.RWMutex

	// commitMu serializes the stamping phase of commits: assigning commit
	// sequences, replacing claim stamps and enqueueing the commit's record
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
	// A commit's sequence is assigned and its claim stamps replaced under
	// commitMu (advancing stampSeq), while commitSeq — the visibility
	// gate — advances only after the commit's WAL record is fsynced, in
	// strict queue order. Between the two, the commit's versions exist
	// but are invisible (their begins exceed every reader's pinned
	// sequence). Sequences of commits that fail after stamping are never
	// reissued in-process: a harmless gap.
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
	groupCommits      atomic.Int64 // in-memory commits: each a group of one

	// versionsSinceReclaim counts versions created or killed since the
	// last reclaim; commits piggyback a reclaim pass when it overflows.
	versionsSinceReclaim atomic.Int64

	// statements counts DML statements since creation
	// (DBStats.StatementsExecuted).
	statements atomic.Int64

	// wal is the durable write-ahead log, attached by OpenWAL or OpenLog
	// (possibly shared with other members, this one's sub-records tagged
	// member); nil keeps the engine fully in-memory (commits then publish
	// inline under the commit latch). When set, every commit's record
	// is written and fsynced by the WAL writer stage before the commit
	// publishes, pager holds the database's own page store, and
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
	// Scan visits every visible row of a table in insertion order (which
	// is ascending row id, before and after a restart), each decoded for
	// the callback; returning false stops the scan.
	Scan(table string, fn func(*Row) bool) error
	// LookupEqual returns the ids of visible rows whose named columns
	// equal the given values.
	LookupEqual(table string, columns []string, values []Value) ([]RowID, error)
	// LookupRows is LookupEqual returning each match with the values the
	// lookup decoded (from a version's payload, or faulted from a page)
	// to verify its key. Every returned slice is fresh: the caller owns
	// it.
	LookupRows(table string, columns []string, values []Value) ([]Row, error)
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
// kind and fold (see obs.FoldStats) and its help tag describes it. Every
// field is read atomically (or under its own short mutex), so a snapshot
// may be taken while other goroutines are mutating the database. The
// log's own counters (segments, bytes, fsyncs, durable commit groups and
// their transactions, checkpoint passes, pipeline depth, the fsync,
// pause and stall histograms) come from WAL.Stats: a member
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
	TxnsStarted int64  `json:"txns_started" stat:"txns_started_total,counter,sum" help:"Transactions ever begun."`
	Conflicts   int64  `json:"conflicts" stat:"txn_conflicts_total,counter,sum,shard" help:"Write-write conflicts detected by the engine (first-updater-wins losers)."`
	// GroupCommits: with a WAL, one per writer-stage batch that was
	// fsynced (every commit that queued behind the previous fsync shares
	// it); in memory, one per commit, a group of one transaction.
	// GroupedTxns/GroupCommits is the mean commit-coalescing factor.
	GroupCommits         int64 `json:"group_commits" stat:"group_commits_total,counter,sum" help:"Commit groups published, one flush each (with a WAL: one per fsynced writer-stage batch, whichever shards its records commit on; in memory: one per commit)."`
	GroupedTxns          int64 `json:"grouped_txns" stat:"grouped_txns_total,counter,sum" help:"Transactions committed through commit groups (a cross-shard transaction counts once)."`
	WALSegments          int64 `json:"wal_segments" stat:"wal_segments,gauge,sum" help:"Durable WAL segment files currently live (0 without -data-dir)."`
	WALBytes             int64 `json:"wal_bytes" stat:"wal_bytes_total,counter,sum" help:"Bytes appended to the view's durable WAL segments."`
	Fsyncs               int64 `json:"fsyncs_total" stat:"wal_fsyncs_total,counter,sum" help:"fsync calls issued by the view's durable WAL (commit batches, segment seals, checkpoint installs)."`
	Checkpoints          int64 `json:"checkpoints_total" stat:"wal_checkpoints_total,counter,sum" help:"Checkpoint passes of the view's log."`
	RecoveryReplayedTxns int64 `json:"recovery_replayed_txns" stat:"wal_recovery_replayed_txns,gauge,sum" help:"Committed transactions replayed from the WAL at startup."`
	WALPipelineDepth     int64 `json:"wal_pipeline_depth" stat:"wal_pipeline_depth,gauge,sum" help:"Commit groups queued or in flight in the WAL writer stage."`
	// CheckpointLastPauseNs is the log's, reported by every member.
	CheckpointLastPauseNs  int64        `json:"checkpoint_last_pause_ns" stat:"checkpoint_last_pause_seconds,gauge,max,shard" help:"Duration of the most recent checkpoint pass (worst shard)."`
	PagecacheHits          int64        `json:"pagecache_hits" stat:"pagecache_hits_total,counter,sum,shard" help:"Buffer-pool page reads served from memory."`
	PagecacheMisses        int64        `json:"pagecache_misses" stat:"pagecache_misses_total,counter,sum,shard" help:"Buffer-pool page reads that faulted from disk."`
	PagecacheEvictions     int64        `json:"pagecache_evictions" stat:"pagecache_evictions_total,counter,sum,shard" help:"Buffer-pool frames evicted to stay within the budget."`
	PagesTotal             int64        `json:"pages_total" stat:"pages_total,gauge,sum,shard" help:"Live pages in the checkpoint page store."`
	CompactionPagesWritten int64        `json:"compaction_pages_written" stat:"compaction_pages_written_total,counter,sum" help:"Pages written by checkpoint passes."`
	FsyncHist              obs.Snapshot `json:"-" stat:"wal_fsync_seconds,histogram,sum" help:"Durable WAL fsync duration per commit group (empty without -data-dir)."`
	CheckpointPauseHist    obs.Snapshot `json:"-" stat:"checkpoint_pause_seconds,histogram,sum" help:"Checkpoint pass duration — O(dirty) under incremental checkpoints (empty without -data-dir)."`
	CheckpointStallHist    obs.Snapshot `json:"-" stat:"checkpoint_stall_seconds,histogram,sum" help:"Time a checkpoint pass holds every commit latch of its log (barrier, pins, segment rotation): what commits wait for (empty without -data-dir)."`
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
		GroupedTxns:        db.groupCommits.Load(),
	}
	w := db.wal
	if w == nil {
		return st
	}
	ps, ss := db.pager.pool.Stats(), db.pager.store.Stats()
	st.RecoveryReplayedTxns = db.walRecoveredTxns.Load()
	st.CheckpointLastPauseNs = w.lastCkptPauseNs.Load()
	st.PagecacheHits, st.PagecacheMisses, st.PagecacheEvictions = int64(ps.Hits), int64(ps.Misses), int64(ps.Evictions)
	st.PagesTotal, st.CompactionPagesWritten = int64(ss.PagesTotal), int64(ss.PagesWritten)
	if len(w.members) == 1 {
		return obs.FoldStats(st, w.Stats())
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
		td := &tableData{def: t, key: strings.ToLower(t.Name), rows: make(map[RowID]*rowVersion)}
		newIndex := func(cols []int, unique bool) *hashIndex {
			typ := t.Columns[cols[0]].Type
			return newHashIndex(cols, unique, len(cols) == 1 && (typ == TypeInt || typ == TypeDate))
		}
		if len(t.PrimaryKey) > 0 {
			cols := mustColumnIndexes(t, t.PrimaryKey)
			td.pkIndex = newIndex(cols, true)
			td.indexes = append(td.indexes, td.pkIndex)
		}
		for _, c := range t.Columns {
			if c.Unique {
				cols := mustColumnIndexes(t, []string{c.Name})
				td.indexes = append(td.indexes, newIndex(cols, true))
			}
		}
		for _, fk := range t.ForeignKeys {
			cols := mustColumnIndexes(t, fk.Columns)
			td.fkCols = append(td.fkCols, cols)
			if td.findIndex(cols) == nil {
				td.indexes = append(td.indexes, newIndex(cols, false))
			}
		}
		for _, ix := range td.indexes {
			td.want = markColumns(td.want, ix.columns)
		}
		tables[td.key] = td
	}
	for _, td := range tables {
		for _, fk := range td.def.ForeignKeys {
			ref := tables[strings.ToLower(fk.RefTable)]
			td.fkRefs = append(td.fkRefs, fkRef{td: ref, cols: mustColumnIndexes(ref.def, fk.RefColumns)})
		}
	}
	return tables
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
	td, ok := db.tables[name] // most names arrive lower-cased
	if !ok {
		td, ok = db.tables[strings.ToLower(name)]
	}
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

// Get returns the row with the given id as of the latest committed
// state. It resolves and faults under the read latch: an unregistered
// reader must not race the reclaimer, which may truncate the chain tail
// the resolution walks, or a quarantined slot's release (pager.go).
func (db *Database) Get(table string, id RowID) (*Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seq := db.commitSeq.Load()
	return db.get(table, id, func(v *rowVersion) *rowVersion { return v.visibleAt(seq) }, true)
}

// get is the Get every reader shares, decoding the row resolve sees.
// held is lookup's: a registered reader reads the ref under the latch
// and resolves and faults after it drops.
func (db *Database) get(table string, id RowID, resolve func(*rowVersion) *rowVersion, held bool) (*Row, error) {
	td, err := db.tableData(table) // the table map is fixed: no latch
	if err != nil {
		return nil, err
	}
	if !held {
		db.mu.RLock()
	}
	r := td.ref(id)
	if !held {
		db.mu.RUnlock()
	}
	row, ok := db.see(td, r, resolve)
	if !ok {
		return nil, fmt.Errorf("%w: %s rowid %d", ErrNoSuchRow, table, id)
	}
	return &row, nil
}

// compactLocked drops reclaimed ids — neither a version nor a page slot
// — from the id column, walking it by position. Called by the reclaimer
// (a writer) only; readers filter invisible ids instead.
func (td *tableData) compactLocked() {
	if !td.dirty {
		return
	}
	n := 0
	for i, id := range td.ids {
		if td.refAt(i).found() {
			td.ids[n] = id
			if td.slots != nil {
				td.slots[n] = td.slots[i]
			}
			n++
		}
	}
	td.ids = td.ids[:n]
	if td.slots != nil {
		td.slots = td.slots[:n]
	}
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
	out := make([]rowRef, 0, len(td.ids))
	for i := range td.ids {
		if r := td.refAt(i); r.found() {
			out = append(out, r)
		}
	}
	return out, td, nil
}

// Scan visits every committed-visible row of a table in insertion
// order, through a snapshot pinned for the scan, each row decoded for
// the callback. Returning false stops the scan. The latch is not held
// while the callback runs.
func (db *Database) Scan(table string, fn func(*Row) bool) error {
	s := db.Snapshot()
	defer s.Close()
	return s.Scan(table, fn)
}

// LookupEqual returns the ids of committed-visible rows whose named
// columns equal the given values, using a hash index when one covers
// the columns and falling back to a scan otherwise. The returned ids
// are deterministic.
func (db *Database) LookupEqual(table string, columns []string, values []Value) ([]RowID, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seq := db.commitSeq.Load()
	return db.lookupIDs(nil, table, columns, values, func(head *rowVersion) *rowVersion { return head.visibleAt(seq) }, true)
}

// LookupRows is LookupEqual returning each match with the values that
// verified it (see Reader). Resolution and faults run under the read
// latch: an unregistered reader must not race the reclaimer or a
// quarantined slot's release (pager.go).
func (db *Database) LookupRows(table string, columns []string, values []Value) ([]Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seq := db.commitSeq.Load() // under the latch: reclaim cannot outrun it
	return db.lookup(table, columns, values, func(head *rowVersion) *rowVersion {
		return head.visibleAt(seq)
	}, true)
}

// lookup is the lookup core every reader of the database shares. Under
// db.mu it collects the candidates' refs (refsLocked); each then
// resolves through the reader's visibility function, and the values it
// sees, faulted in once for a page-only row, are re-verified against the
// probe (buckets keep ids of versions this reader may not see) and
// returned with the id (appendMatch). A caller holding db.mu in either
// mode (the Database's latest reads, the write paths' key checks)
// passes held and resolves under its latch; a registered reader
// (Snapshot, Txn) takes the read latch to collect and faults after it.
func (db *Database) lookup(table string, columns []string, values []Value, resolve func(*rowVersion) *rowVersion, held bool) ([]Row, error) {
	var colBuf [4]int
	td, cols, err := db.columnsOf(table, columns, colBuf[:0])
	if err != nil {
		return nil, err
	}
	var one [1]RowID
	var refBuf [8]rowRef // most buckets: no allocation
	if !held {
		db.mu.RLock()
	}
	refs, _ := td.refsLocked(cols, values, &one, refBuf[:0])
	if !held {
		db.mu.RUnlock()
	}
	out := make([]Row, 0, min(len(refs), 16)) // a bucket's candidates mostly match, a scan's rarely
	for _, r := range refs {
		out = db.appendMatch(out, td, r, resolve, cols, values)
	}
	return out, nil
}

// lookupIDs is lookup (held alike) for a caller that needs ids, not
// rows — every LookupEqual, the write paths' key checks — appending
// them to dst: a candidate decodes only the probed columns to verify.
func (db *Database) lookupIDs(dst []RowID, table string, columns []string, values []Value, resolve func(*rowVersion) *rowVersion, held bool) ([]RowID, error) {
	var colBuf [4]int
	td, cols, err := db.columnsOf(table, columns, colBuf[:0])
	if err != nil {
		return dst, err
	}
	return db.lookupIDsIn(dst, td, cols, values, resolve, held), nil
}

// lookupIDsIn is lookupIDs with the table and the columns' positions
// resolved. A page-only candidate of an exact index is a match as it
// stands (hashIndex): no page is pinned for it.
func (db *Database) lookupIDsIn(dst []RowID, td *tableData, cols []int, values []Value, resolve func(*rowVersion) *rowVersion, held bool) []RowID {
	var one [1]RowID
	var refBuf [8]rowRef
	if !held {
		db.mu.RLock()
	}
	refs, verified := td.refsLocked(cols, values, &one, refBuf[:0])
	if !held {
		db.mu.RUnlock()
	}
	var wb [scratchCols]bool
	var vb [scratchCols]Value
	want := markColumns(wb[:0], cols)
next:
	for _, r := range refs {
		if verified && r.slot != 0 {
			dst = append(dst, r.id)
			continue
		}
		vals, ok := db.wantedOf(td, r, resolve, want, vb[:])
		if !ok {
			continue
		}
		for i, c := range cols {
			if !vals[c].Equal(values[i]) {
				continue next
			}
		}
		dst = append(dst, r.id)
	}
	return dst
}

// columnsOf resolves a table and its named columns, appending their
// positions to cols. The table map and the schema are fixed: no latch.
func (db *Database) columnsOf(table string, columns []string, cols []int) (*tableData, []int, error) {
	td, err := db.tableData(table)
	if err != nil {
		return nil, nil, err
	}
	for _, c := range columns {
		idx, ok := td.def.ColumnIndex(c)
		if !ok {
			return nil, nil, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, table, c)
		}
		cols = append(cols, idx)
	}
	return td, cols, nil
}

// refsLocked appends to refs the refs of the candidates for values on
// cols: the covering index's bucket (a single id comes back in one),
// each id resolved, else the whole id column, walked by position. The
// buffers are the caller's. verified reports that a page-only candidate
// matches as it stands (hashIndex.verified). Caller holds db.mu in
// either mode.
func (td *tableData) refsLocked(cols []int, values []Value, one *[1]RowID, refs []rowRef) (_ []rowRef, verified bool) {
	ix := td.findIndex(cols)
	if ix == nil {
		refs = slices.Grow(refs, len(td.ids))
		for i := range td.ids {
			refs = append(refs, td.refAt(i))
		}
		return refs, false
	}
	ids := ix.lookup(cols, values, one)
	refs = slices.Grow(refs, len(ids))
	for _, id := range ids {
		refs = append(refs, td.ref(id))
	}
	return refs, ix.verified()
}

// appendMatch appends the row the reader sees through r when its values
// equal the probe values on cols. The values are decoded fresh, from a
// version's payload or faulted from its page.
func (db *Database) appendMatch(out []Row, td *tableData, r rowRef, resolve func(*rowVersion) *rowVersion, cols []int, values []Value) []Row {
	row, ok := db.see(td, r, resolve)
	if !ok {
		return out
	}
	for i, c := range cols {
		if !row.Values[c].Equal(values[i]) {
			return out
		}
	}
	return append(out, row)
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

// coerceRow converts a row given in declared column order to the
// columns' types in out's backing array (grown past it when the table
// is wider). A row of another width is an error.
func (td *tableData) coerceRow(row []Value, out []Value) ([]Value, error) {
	cols := td.def.Columns
	if len(row) != len(cols) {
		return nil, fmt.Errorf("relational: table %s: a row of %d values, want %d", td.def.Name, len(row), len(cols))
	}
	out = slices.Grow(out[:0], len(cols))[:len(cols)]
	for i := range row {
		if out[i] = row[i]; row[i].fits(cols[i].Type) {
			continue
		}
		coerced, err := row[i].CoerceTo(cols[i].Type)
		if err != nil {
			return nil, constraintErr(ErrTypeMismatch, td.def.Name, cols[i].Name, err.Error())
		}
		out[i] = coerced
	}
	return out, nil
}

// checkLocalConstraints enforces NOT NULL and CHECK column constraints.
func (td *tableData) checkLocalConstraints(values []Value) error {
	for i, c := range td.def.Columns {
		v := values[i]
		if v.IsNull() && td.def.notNull[i] {
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
		var kb [scratchCols]Value
		matchV := func(v *rowVersion) bool { return match(decodeWanted(v.payload, ix.want, kb[:])) }
		var one [1]RowID
		for _, id := range ix.bucket(key, &one) {
			if id == exclude {
				continue
			}
			r := td.ref(id)
			if r.slot != 0 {
				// Page-only: committed before every reader, t included;
				// an exact index's candidate matches as it stands.
				if ix.verified() {
					return dupErr()
				}
				if vals, _ := db.wantedOf(td, r, nil, ix.want, kb[:]); match(vals) { // faults; write latch held
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
						if e == liveSeq && matchV(v) {
							return dupErr() // t's own uncommitted duplicate
						}
						continue // superseded/deleted own version
					}
					if matchV(v) {
						return db.writeConflict(td.def.Name,
							fmt.Sprintf("duplicate key inserted by an in-flight transaction (rowid %d)", id))
					}
					continue
				}
				// Newest committed version: judge and stop walking.
				if e == liveSeq {
					if matchV(v) {
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
				} else if isTxnMark(e) && markOwner(e) != t.id && matchV(v) {
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
		var idBuf [4]RowID
		ref := td.fkRefs[i]
		if refs := db.lookupIDsIn(idBuf[:0], ref.td, ref.cols, vals, t.resolve, true); len(refs) == 0 {
			return constraintErr(ErrForeignKey, td.def.Name, strings.Join(fk.Columns, ","),
				fmt.Sprintf("no row in %s matches", fk.RefTable))
		}
	}
	return nil
}

// txnInsert is the insert core, writing through transaction t one row
// given in declared column order.
func (db *Database) txnInsert(t *Txn, table string, row []Value) (RowID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, err := db.tableData(table)
	if err != nil {
		return 0, err
	}
	db.statements.Add(1)
	var buf [scratchCols]Value
	row, err = td.coerceRow(row, buf[:])
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
	v := newVersion(newPayload(row), txnMark(t.id))
	td.rows[id] = v
	td.add(id)
	td.live++
	db.versionsSinceReclaim.Add(1)
	for _, ix := range td.indexes {
		ix.insert(id, row)
	}
	t.log = append(t.log, undoEntry{kind: undoInsert, table: table, id: id, v: v})
	return id, nil
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
	var vals []Value // decoded once, by the first referencing key
	for _, ref := range db.schema.ReferencingKeys(table) {
		if vals == nil {
			vals = v.values(nil)
		}
		refVals := make([]Value, len(ref.FK.RefColumns))
		skip := false
		for i, rc := range ref.FK.RefColumns {
			ci, ok := td.def.ColumnIndex(rc)
			if !ok {
				return deleted, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, table, rc)
			}
			refVals[i] = vals[ci]
			if refVals[i].IsNull() {
				skip = true
			}
		}
		if skip {
			continue
		}
		refs, err := db.lookupIDs(nil, ref.Table.Name, ref.FK.Columns, refVals, t.resolve, true)
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
			for _, rid := range refs {
				n, err := db.deleteRowLocked(t, ref.Table.Name, rid)
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
			for _, rid := range refs {
				if err := db.updateRowLocked(t, ref.Table.Name, rid, nulls); err != nil {
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
	t.log = append(t.log, undoEntry{kind: undoDelete, table: table, id: id, v: v})
	return deleted, nil
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
	var buf [scratchCols]Value
	newVals := v.values(buf[:0])
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
	nv := newVersion(newPayload(newVals), txnMark(t.id))
	nv.prev.Store(v)
	v.end.Store(txnMark(t.id))
	td.rows[id] = nv
	db.versionsSinceReclaim.Add(1)
	for _, ix := range td.indexes {
		ix.insert(id, newVals) // buckets are id-sets: unchanged keys dedupe
	}
	t.log = append(t.log, undoEntry{kind: undoUpdate, table: table, id: id, v: nv})
	return nil
}

// removeVersionEntries drops a discarded version's index entries,
// keeping any entry whose key is still produced by a version remaining
// in the chain (kept, walked towards older). Used when rolling back an
// uncommitted version (invisible to everyone, so eager removal is
// safe) and by the reclaimer.
func removeVersionEntries(td *tableData, id RowID, dropped *rowVersion, kept *rowVersion) {
next:
	for _, ix := range td.indexes {
		key, ok := ix.payloadKey(dropped.payload)
		if !ok {
			continue
		}
		for k := kept; k != nil; k = k.prev.Load() {
			if kk, ok := ix.payloadKey(k.payload); ok && kk == key {
				continue next
			}
		}
		ix.removeKey(key, id)
	}
}

// SortedTableNames returns the table names sorted alphabetically (used
// by deterministic dumps).
func (db *Database) SortedTableNames() []string {
	names := make([]string, 0, len(db.tables))
	for _, td := range db.tables {
		names = append(names, td.def.Name)
	}
	slices.Sort(names)
	return names
}
