// Package shard hash-partitions one view's base-table rows across N
// independent relational databases so that the per-shard commit
// latches, redo pipelines and WAL fsyncs run in parallel while the
// executor stack above keeps seeing a single relational.Engine.
//
// The partitioning is row-level and FK-closure-aware:
//
//   - A root table (no foreign keys) routes each row by an FNV-64a hash
//     of its primary-key values, so all rows with the same key land on
//     the same shard and the engine's local PRIMARY KEY check remains
//     authoritative for hash-routed keys.
//   - A child table routes each row to the shard holding its referenced
//     parent (looked up through the inserting transaction, so a parent
//     inserted earlier in the same transaction is found). Children
//     therefore co-locate transitively with their root ancestor, which
//     keeps FOREIGN KEY existence checks and CASCADE/SET NULL fan-out
//     shard-local for single-FK chains — the shape of every dataset this
//     repo ships (publisher←book←review, region←nation←…←lineitem,
//     organism←protein←citation). A table with several foreign keys
//     co-locates along its first FK only; rows whose other parents live
//     elsewhere still verify correctly because uniqueness is probed
//     cross-shard, but their FK checks rely on the first-FK shard.
//   - A child whose FK values are NULL (or whose parent is missing)
//     falls back to the primary-key hash; the shard-local FK check then
//     accepts the NULL per SQL semantics or rejects the dangling
//     reference with the canonical error.
//
// Constraints that a single shard cannot see — a duplicate key whose
// twin lives on another shard — are closed by scatter probes at
// Insert/UpdateRow time (see Txn). Reads scatter-gather: point lookups
// by row id route to exactly one shard (ids are striped id ≡ shard+1
// (mod N) via SetRowIDAlloc), scans and key lookups merge per-shard
// results in ascending row-id order.
//
// Consistency across shards comes from one latch, DB.xmu: transactions
// and snapshots begin under the read side, cross-shard commits publish
// under the write side, so a reader pins a vector of per-shard views in
// which every cross-shard transaction is visible on all its shards or
// none. Durability for cross-shard commits is an ordered two-phase
// protocol in which the per-shard WALs append without flushing and one
// coordinator-log record carrying every shard's redo is the commit point;
// see commit.go and xlog.go.
package shard

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/relational"
)

// Options configures a shard group.
type Options struct {
	// Dir is the group's root directory: shard i logs under
	// Dir/shard-<i> and the cross-shard coordinator log is Dir/xlog[-<n>].
	// Empty runs the whole group in memory (no WALs, no recovery).
	Dir string
	// WAL configures each shard's write-ahead log. The Coordinator field
	// is owned by the group (each shard gets its view of the coordinator
	// log) and must be left nil by callers.
	WAL relational.WALOptions
}

// DB is a shard group: N relational databases behind one Engine.
type DB struct {
	schema *relational.Schema
	shards []*relational.Database
	rds    []relational.Reader // shards, pre-typed for the merge helpers
	n      int
	dir    string
	routes map[string]*tableRoute

	// pkMoved flips (permanently) when an UpdateRow changes a root
	// table's primary key: the moved row no longer lives on its hash
	// shard, so the insert-time shortcut that skips cross-shard PK
	// probes for hash-routed roots is disabled from then on.
	pkMoved atomic.Bool

	// xmu orders cross-shard commits against vector pins: BeginTxn and
	// OpenSnapshot hold the read side while pinning all N shards,
	// commitCross holds the write side while it publishes, so no reader
	// ever observes a cross-shard transaction on a strict subset of its
	// shards.
	xmu sync.RWMutex

	nextXid      atomic.Uint64
	xlog         *xlog
	crossCommits atomic.Int64
	crossAborts  atomic.Int64
	// crossExtraTxns counts durable cross-shard commits' participants
	// beyond the first: what Stats takes back out of the GroupedTxns sum.
	crossExtraTxns atomic.Int64
}

// Recovery aggregates what opening the group's logs found.
type Recovery struct {
	// Shards holds each shard's WAL recovery report, indexed by shard.
	Shards []relational.RecoveryInfo `json:"shards"`
	// CommittedXids counts cross-shard transaction ids the coordinator
	// log held (prepared records missing from it were filtered).
	CommittedXids int `json:"committed_xids"`
	// FilteredTxns sums the per-shard prepared-but-uncommitted records
	// recovery discarded.
	FilteredTxns int64 `json:"filtered_txns"`
	// RepairedTxns sums the committed records recovery restored to shard
	// logs from the coordinator log's copies.
	RepairedTxns int64 `json:"repaired_txns"`
}

// tableRoute is the per-table routing metadata derived from the schema.
type tableRoute struct {
	td *relational.TableDef
	pk []string
	// fk is the co-location edge: the table's first foreign key, nil
	// for root tables.
	fk *relational.ForeignKey
	// uniques are the column sets whose uniqueness spans shards and so
	// must be scatter-probed: the primary key (when present, always
	// first) and each UNIQUE column.
	uniques [][]string
}

// New builds an empty shard group over the schema and, with a Dir, opens
// the per-shard WALs and the coordinator log, recovering whatever they
// hold exactly like relational.OpenWAL does for a single database (a
// group nothing was ever committed to recovers with every shard's
// CommitSeq at zero; stream its dataset in with Load). n < 1 is clamped
// to 1; a group of 1 delegates everything to its only shard and is
// byte-for-byte equivalent to an unsharded database.
func New(schema *relational.Schema, n int, opts Options) (*DB, *Recovery, error) {
	if n < 1 {
		n = 1
	}
	if opts.WAL.Coordinator != nil {
		return nil, nil, fmt.Errorf("shard: Options.WAL.Coordinator is owned by the group")
	}
	db := &DB{
		schema: schema,
		shards: make([]*relational.Database, n),
		rds:    make([]relational.Reader, n),
		n:      n,
		dir:    opts.Dir,
		routes: buildRoutes(schema),
	}
	for i := range db.shards {
		s := relational.NewDatabase(schema)
		s.SetRowIDAlloc(relational.RowID(i+1), relational.RowID(n))
		db.shards[i] = s
		db.rds[i] = s
	}
	rec := &Recovery{Shards: make([]relational.RecoveryInfo, n)}
	var maxXid uint64
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("shard: %w", err)
		}
		x, xrec, xmax, err := openXlog(opts.Dir, n, func(s int) uint64 { return db.shards[s].CheckpointSeq() })
		if err != nil {
			return nil, nil, fmt.Errorf("shard: coordinator log: %w", err)
		}
		db.xlog = x
		rec.CommittedXids = len(xrec[0].committed)
		maxXid = xmax
		walOpts := opts.WAL
		if walOpts.PageCacheBytes > 0 && n > 1 {
			// The configured budget bounds the GROUP's page cache: each
			// shard's pool gets an equal slice (rounded up) so the sum
			// stays within one slice of the configured total.
			walOpts.PageCacheBytes = (walOpts.PageCacheBytes + int64(n) - 1) / int64(n)
		}
		// Shards recover in parallel: each shard owns its directory, WAL
		// segments and page store outright, so replay is embarrassingly
		// parallel and the group's recovery wall time is the slowest
		// shard's, not the sum (rec.Shards[i].RecoveryNanos keeps the
		// per-shard times). On failure the lowest-index error wins and
		// every shard that did open is closed again.
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, s := range db.shards {
			wg.Add(1)
			go func(i int, s *relational.Database) {
				defer wg.Done()
				walOpts := walOpts
				walOpts.Coordinator = &xrec[i]
				info, err := s.OpenWAL(shardDir(opts.Dir, i), walOpts)
				if err != nil {
					errs[i] = fmt.Errorf("shard %d: %w", i, err)
					return
				}
				rec.Shards[i] = *info
				// Recovery replays whatever ids the log held; realign the
				// allocator so fresh ids resume on this shard's stripe.
				s.SetRowIDAlloc(relational.RowID(i+1), relational.RowID(n))
			}(i, s)
		}
		wg.Wait()
		for _, err := range errs {
			if err == nil {
				continue
			}
			for j, s := range db.shards {
				if errs[j] == nil {
					_ = s.CloseWAL()
				}
			}
			_ = db.xlog.close()
			return nil, nil, err
		}
		for i := range db.shards {
			info := &rec.Shards[i]
			rec.FilteredTxns += info.FilteredTxns
			rec.RepairedTxns += info.RepairedTxns
			if info.MaxXid > maxXid {
				maxXid = info.MaxXid
			}
		}
		x.retire() // the shards know their checkpoint horizons now
	}
	db.nextXid.Store(maxXid)
	return db, rec, nil
}

func shardDir(dir string, i int) string { return fmt.Sprintf("%s/shard-%d", dir, i) }

// Load streams a dataset into the group: each row fill emits is routed
// like a transactional insert (routeInsert, then the home shard) through
// per-shard batched transactions — see seedTxn — with a checkpoint pass
// over every shard between windows (relational.Load owns the sizes).
// Rows arrive in generator order, so parents precede the children
// routed after them and every shard allocates its ids in that order.
func (db *DB) Load(fill func(relational.Inserter) error) (relational.LoadStats, error) {
	if db.n == 1 {
		return db.shards[0].Load(fill)
	}
	begin := func() relational.WriteTxn {
		return seedTxn{&Txn{db: db, subs: make([]*relational.Txn, db.n), rds: make([]relational.Reader, db.n)}}
	}
	return relational.Load(begin, db.Checkpoint, fill)
}

// Checkpoint runs one checkpoint pass on every shard, overlapping their
// fsyncs (a no-op in memory); the lowest-index error wins.
func (db *DB) Checkpoint() error {
	errs := make([]error, db.n)
	fanOut(db.n, func(i int) { errs[i] = db.shards[i].Checkpoint() })
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// seedTxn is one batch of a Load: a Txn whose inserts skip the
// cross-shard uniqueness probes (a generator's keys are distinct;
// routing still reads the batch's own sub-transactions, so a child
// finds the parent inserted before it) and whose Commit publishes each
// shard's sub-transaction on its own, with no coordinator record — an
// interrupted load is redone, never recovered.
type seedTxn struct{ *Txn }

func (t seedTxn) Insert(table string, values map[string]relational.Value) (relational.RowID, error) {
	return t.sub(t.db.routeInsert(t.readers, table, values)).Insert(table, values)
}

func (t seedTxn) Commit() error {
	for i, sub := range t.subs {
		if sub == nil || sub.OpCount() == 0 {
			continue // an untouched sub is rolled back below
		}
		if err := sub.Commit(); err != nil {
			_ = t.Rollback()
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	_ = t.Rollback() // releases the read-only subs; a no-op on committed ones
	return nil
}

// buildRoutes derives each table's routing metadata from the schema.
func buildRoutes(schema *relational.Schema) map[string]*tableRoute {
	routes := make(map[string]*tableRoute)
	for _, td := range schema.Tables() {
		rt := &tableRoute{td: td, pk: td.PrimaryKey}
		if len(td.ForeignKeys) > 0 {
			rt.fk = &td.ForeignKeys[0]
		}
		if len(td.PrimaryKey) > 0 {
			rt.uniques = append(rt.uniques, td.PrimaryKey)
		}
		for _, c := range td.Columns {
			if c.Unique {
				rt.uniques = append(rt.uniques, []string{c.Name})
			}
		}
		routes[td.Name] = rt
	}
	return routes
}

// shardOf routes a point operation: ids are striped id ≡ shard+1 (mod
// n) by SetRowIDAlloc, so the residue identifies the owning shard.
func (db *DB) shardOf(id relational.RowID) int {
	if db.n == 1 || id < 1 {
		return 0
	}
	return int((int64(id) - 1) % int64(db.n))
}

// routeInsert picks the home shard for a new row: the referenced
// parent's shard for child tables (probed through rds, which are the
// inserting transaction's sub-views so in-transaction parents are
// seen), the primary-key hash otherwise. Unroutable rows (unknown
// table, NULL or missing key components, missing parent) fall back
// deterministically — the target shard's own constraint checks then
// produce the canonical error.
func (db *DB) routeInsert(rds func() []relational.Reader, table string, values map[string]relational.Value) int {
	if db.n == 1 {
		return 0
	}
	rt := db.routes[table]
	if rt == nil {
		return 0
	}
	if rt.fk != nil {
		if vals, ok := keyVals(rt.td, rt.fk.Columns, values); ok {
			for j, rd := range rds() {
				if ids, err := rd.LookupEqual(rt.fk.RefTable, rt.fk.RefColumns, vals); err == nil && len(ids) > 0 {
					return j
				}
			}
		}
	}
	if len(rt.pk) > 0 {
		if vals, ok := keyVals(rt.td, rt.pk, values); ok {
			return int(hashVals(vals) % uint64(db.n))
		}
	}
	return 0
}

// keyVals extracts and type-coerces the named columns from a value map.
// ok is false when any component is missing or NULL — such keys do not
// participate in routing or cross-shard probes (NULLs never collide,
// and missing components fail locally anyway).
func keyVals(td *relational.TableDef, cols []string, values map[string]relational.Value) ([]relational.Value, bool) {
	out := make([]relational.Value, len(cols))
	for i, c := range cols {
		v, ok := values[c]
		if !ok || v.IsNull() {
			return nil, false
		}
		if ci, ok := td.ColumnIndex(c); ok {
			if cv, err := v.CoerceTo(td.Columns[ci].Type); err == nil {
				v = cv
			}
		}
		out[i] = v
	}
	return out, true
}

// hashVals is FNV-64a over the key's EncodeKey forms, NUL-separated.
func hashVals(vals []relational.Value) uint64 {
	h := fnv.New64a()
	for _, v := range vals {
		h.Write([]byte(v.EncodeKey()))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// checkCrossUnique closes the uniqueness gap partitioning opens: the
// home shard's own checks only see its rows, so every unique column set
// is probed on the other shards through rds (the transaction's
// sub-views, so uncommitted duplicates in the same transaction are
// caught too). exclude skips the row being updated; changed, when
// non-nil, restricts probing to sets an update actually touched. The
// primary key of a root table is skipped while the hash co-location
// invariant holds (see DB.pkMoved). Two transactions concurrently
// inserting the same key onto different shards can both pass the probe
// — the same write-skew window the engine's snapshot-isolation FK
// checks already document — and is accepted as this layer's isolation
// level.
func (db *DB) checkCrossUnique(rds func() []relational.Reader, home int, table string, values map[string]relational.Value, exclude relational.RowID, changed map[string]bool) error {
	if db.n == 1 {
		return nil
	}
	rt := db.routes[table]
	if rt == nil {
		return nil
	}
	for si, set := range rt.uniques {
		if changed != nil && !intersects(set, changed) {
			continue
		}
		isPK := si == 0 && len(rt.pk) > 0 // PK is always uniques[0] when present
		if isPK && rt.fk == nil && !db.pkMoved.Load() {
			continue // hash routing already co-locates duplicates
		}
		vals, ok := keyVals(rt.td, set, values)
		if !ok {
			continue
		}
		for j, rd := range rds() {
			if j == home {
				continue
			}
			ids, err := rd.LookupEqual(table, set, vals)
			if err != nil {
				continue
			}
			for _, id := range ids {
				if id == exclude {
					continue
				}
				kind := relational.ErrUnique
				if isPK {
					kind = relational.ErrPrimaryKey
				}
				return fmt.Errorf("%w: %s(%s) duplicates row %d on shard %d",
					kind, table, joinCols(set), id, j)
			}
		}
	}
	return nil
}

func intersects(cols []string, changed map[string]bool) bool {
	for _, c := range cols {
		if changed[c] {
			return true
		}
	}
	return false
}

func joinCols(cols []string) string {
	s := ""
	for i, c := range cols {
		if i > 0 {
			s += ", "
		}
		s += c
	}
	return s
}

// ---- Reader: scatter-gather over the committed shards. Latest reads
// are per-shard read-committed (no vector pin), matching the documented
// degradation of reading the live database instead of a snapshot.

func (db *DB) Schema() *relational.Schema { return db.schema }

func (db *DB) Get(table string, id relational.RowID) (*relational.Row, error) {
	return db.shards[db.shardOf(id)].Get(table, id)
}

func (db *DB) ValuesByName(table string, id relational.RowID) (map[string]relational.Value, error) {
	return db.shards[db.shardOf(id)].ValuesByName(table, id)
}

func (db *DB) Scan(table string, fn func(*relational.Row) bool) error {
	return scanMerged(db.rds, table, fn)
}

func (db *DB) LookupEqual(table string, columns []string, values []relational.Value) ([]relational.RowID, error) {
	return lookupMerged(db.rds, table, columns, values)
}

func (db *DB) HasIndexOn(table string, columns []string) bool {
	return db.shards[0].HasIndexOn(table, columns)
}

func (db *DB) RowCount(table string) int {
	if db.n == 1 {
		return db.shards[0].RowCount(table)
	}
	counts := make([]int, db.n)
	fanOut(db.n, func(i int) { counts[i] = db.shards[i].RowCount(table) })
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

func (db *DB) TotalRows() int {
	n := 0
	for _, s := range db.shards {
		n += s.TotalRows()
	}
	return n
}

// scanMerged visits every shard's rows merged in ascending row-id
// order (each shard scans in insertion order, which is ascending id).
// Retaining the *Row pointers across the sub-scans is safe: version
// payloads are immutable once published.
func scanMerged(rds []relational.Reader, table string, fn func(*relational.Row) bool) error {
	if len(rds) == 1 {
		return rds[0].Scan(table, fn)
	}
	rows := make([][]*relational.Row, len(rds))
	for i, rd := range rds {
		err := rd.Scan(table, func(r *relational.Row) bool {
			rows[i] = append(rows[i], r)
			return true
		})
		if err != nil {
			return err
		}
	}
	idx := make([]int, len(rds))
	for {
		best := -1
		for i := range rows {
			if idx[i] >= len(rows[i]) {
				continue
			}
			if best < 0 || rows[i][idx[i]].ID < rows[best][idx[best]].ID {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		if !fn(rows[best][idx[best]]) {
			return nil
		}
		idx[best]++
	}
}

// lookupMerged concatenates per-shard index lookups, sorted by id for a
// deterministic order. Shards probe in parallel (each reader is a
// distinct per-shard view, so the probes share nothing); the
// lowest-index error wins.
func lookupMerged(rds []relational.Reader, table string, columns []string, values []relational.Value) ([]relational.RowID, error) {
	if len(rds) == 1 {
		return rds[0].LookupEqual(table, columns, values)
	}
	perShard := make([][]relational.RowID, len(rds))
	errs := make([]error, len(rds))
	fanOut(len(rds), func(i int) {
		perShard[i], errs[i] = rds[i].LookupEqual(table, columns, values)
	})
	var out []relational.RowID
	for i := range rds {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, perShard[i]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// fanOut runs fn(i) for i in [0, n) on up to GOMAXPROCS goroutines and
// waits for all of them. Each index is handed to exactly one goroutine,
// so fn may write to index-i slots of shared slices without locking.
func fanOut(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ---- Engine: autocommit DML, lifecycle, statistics and maintenance.

func (db *DB) Insert(table string, values map[string]relational.Value) (relational.RowID, error) {
	t := db.BeginTxn()
	id, err := t.Insert(table, values)
	if err != nil {
		_ = t.Rollback()
		return 0, err
	}
	if err := t.Commit(); err != nil {
		return 0, err
	}
	return id, nil
}

func (db *DB) Delete(table string, id relational.RowID) (int, error) {
	t := db.BeginTxn()
	n, err := t.Delete(table, id)
	if err != nil {
		_ = t.Rollback()
		return 0, err
	}
	if err := t.Commit(); err != nil {
		return 0, err
	}
	return n, nil
}

func (db *DB) UpdateRow(table string, id relational.RowID, changes map[string]relational.Value) error {
	t := db.BeginTxn()
	if err := t.UpdateRow(table, id, changes); err != nil {
		_ = t.Rollback()
		return err
	}
	return t.Commit()
}

// BeginTxn starts a cross-shard write transaction. Sub-transactions
// are acquired lazily as shards are first touched (each under the
// vector latch's read side), so a transaction confined to one shard —
// the common case once writers partition — begins exactly one engine
// transaction; see Txn for the resulting read-view contract.
func (db *DB) BeginTxn() relational.WriteTxn {
	if db.n == 1 {
		return db.shards[0].BeginTxn()
	}
	return &Txn{db: db, subs: make([]*relational.Txn, db.n), rds: make([]relational.Reader, db.n)}
}

// OpenSnapshot pins one snapshot per shard under the vector latch: a
// cross-shard transaction is visible on all its shards or on none.
func (db *DB) OpenSnapshot() relational.Snap {
	if db.n == 1 {
		return db.shards[0].OpenSnapshot()
	}
	db.xmu.RLock()
	defer db.xmu.RUnlock()
	v := &SnapVec{subs: make([]*relational.Snapshot, db.n), rds: make([]relational.Reader, db.n)}
	for i, s := range db.shards {
		sn := s.Snapshot()
		v.subs[i] = sn
		v.rds[i] = sn
	}
	return v
}

// Stats aggregates the per-shard rollups: counters sum; CommitSeq is
// the sum of per-shard sequences — the same monotone logical clock
// SnapVec.Seq reports. The coordinator log's flushes and bytes are in
// Fsyncs and WALBytes, each of its flushes is one commit group (the flush
// a cross-shard commit rides; no shard flushes for it), and a cross-shard
// transaction counts once in GroupedTxns however many shards published it.
func (db *DB) Stats() relational.DBStats {
	var agg relational.DBStats
	if x := db.xlog; x != nil {
		agg.Fsyncs = x.fsyncs.Load()
		agg.WALBytes = x.bytes.Load()
		agg.GroupCommits = agg.Fsyncs
		agg.GroupedTxns = -db.crossExtraTxns.Load()
	}
	for _, s := range db.shards {
		st := s.Stats()
		agg.StatementsExecuted += st.StatementsExecuted
		agg.SnapshotsActive += st.SnapshotsActive
		agg.SnapshotsOpened += st.SnapshotsOpened
		agg.VersionsReclaimed += st.VersionsReclaimed
		agg.Reclaims += st.Reclaims
		agg.CommitSeq += st.CommitSeq
		agg.TxnsActive += st.TxnsActive
		agg.TxnsStarted += st.TxnsStarted
		agg.Conflicts += st.Conflicts
		agg.GroupCommits += st.GroupCommits
		agg.GroupedTxns += st.GroupedTxns
		agg.WALSegments += st.WALSegments
		agg.WALBytes += st.WALBytes
		agg.Fsyncs += st.Fsyncs
		agg.Checkpoints += st.Checkpoints
		agg.RecoveryReplayedTxns += st.RecoveryReplayedTxns
		agg.WALRecycledSegments += st.WALRecycledSegments
		agg.WALPipelineDepth += st.WALPipelineDepth
		agg.PagecacheHits += st.PagecacheHits
		agg.PagecacheMisses += st.PagecacheMisses
		agg.PagecacheEvictions += st.PagecacheEvictions
		agg.PagesTotal += st.PagesTotal
		agg.CompactionPagesWritten += st.CompactionPagesWritten
		// Chain length and pause are per-shard maxima, not sums: the
		// worst shard bounds recovery time and the observable pause.
		if st.CheckpointDeltaChainLen > agg.CheckpointDeltaChainLen {
			agg.CheckpointDeltaChainLen = st.CheckpointDeltaChainLen
		}
		if st.CheckpointLastPauseNs > agg.CheckpointLastPauseNs {
			agg.CheckpointLastPauseNs = st.CheckpointLastPauseNs
		}
	}
	return agg
}

func (db *DB) VersionStats() relational.VersionStats {
	var agg relational.VersionStats
	for _, s := range db.shards {
		addVersionStats(&agg, s.VersionStats())
	}
	return agg
}

func (db *DB) StatementsExecutedTotal() int64 {
	var n int64
	for _, s := range db.shards {
		n += s.StatementsExecutedTotal()
	}
	return n
}

// LastFsyncNanos reports the slowest of the shards' last fsyncs: for a
// batch fanned out across shards, the max is the flush latency the
// group's committers actually waited on.
func (db *DB) LastFsyncNanos() int64 {
	var max int64
	for _, s := range db.shards {
		if v := s.LastFsyncNanos(); v > max {
			max = v
		}
	}
	return max
}

// FsyncHistogram merges the per-shard fsync distributions.
func (db *DB) FsyncHistogram() obs.Snapshot {
	return db.mergeHistograms((*relational.Database).FsyncHistogram)
}

// CheckpointPauseHistogram merges the per-shard checkpoint-pause
// distributions.
func (db *DB) CheckpointPauseHistogram() obs.Snapshot {
	return db.mergeHistograms((*relational.Database).CheckpointPauseHistogram)
}

// mergeHistograms sums one per-shard distribution bucket-wise (all
// shards share one histogram geometry).
func (db *DB) mergeHistograms(of func(*relational.Database) obs.Snapshot) obs.Snapshot {
	var agg obs.Snapshot
	for _, s := range db.shards {
		sn := of(s)
		if len(sn.Counts) == 0 {
			continue
		}
		if len(agg.Counts) == 0 {
			counts := make([]uint64, len(sn.Counts))
			copy(counts, sn.Counts)
			agg = obs.Snapshot{MinExp: sn.MinExp, Unit: sn.Unit, Counts: counts, Sum: sn.Sum, Count: sn.Count}
			continue
		}
		for i := range sn.Counts {
			if i < len(agg.Counts) {
				agg.Counts[i] += sn.Counts[i]
			}
		}
		agg.Sum += sn.Sum
		agg.Count += sn.Count
	}
	return agg
}

func (db *DB) Reclaim() int {
	n := 0
	for _, s := range db.shards {
		n += s.Reclaim()
	}
	return n
}

func (db *DB) StartReclaimer(interval time.Duration) (stop func()) {
	return db.startAll(interval, (*relational.Database).StartReclaimer)
}

func (db *DB) StartCheckpointer(interval time.Duration) (stop func()) {
	return db.startAll(interval, (*relational.Database).StartCheckpointer)
}

func (db *DB) startAll(interval time.Duration, start func(*relational.Database, time.Duration) func()) func() {
	stops := make([]func(), len(db.shards))
	for i, s := range db.shards {
		stops[i] = start(s, interval)
	}
	return func() {
		for _, stop := range stops {
			stop()
		}
	}
}

// CloseWAL closes every shard's WAL and the coordinator log.
func (db *DB) CloseWAL() error {
	var first error
	for _, s := range db.shards {
		if err := s.CloseWAL(); err != nil && first == nil {
			first = err
		}
	}
	if db.xlog != nil {
		if err := db.xlog.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WALDir returns the group's root directory (empty in memory).
func (db *DB) WALDir() string { return db.dir }

// ShardCount reports the group's width.
func (db *DB) ShardCount() int { return db.n }

// ShardStats returns one statistics rollup per shard.
func (db *DB) ShardStats() []relational.ShardStat {
	out := make([]relational.ShardStat, db.n)
	for i, s := range db.shards {
		out[i] = relational.ShardStat{Shard: i, DBStats: s.Stats(), Rows: s.TotalRows()}
	}
	return out
}

// CrossCommits counts published cross-shard transactions.
func (db *DB) CrossCommits() int64 { return db.crossCommits.Load() }

// CrossAborts counts cross-shard transactions aborted during 2PC.
func (db *DB) CrossAborts() int64 { return db.crossAborts.Load() }

// XlogFsyncs counts the coordinator log's Sync calls: one per durable
// cross-shard commit.
func (db *DB) XlogFsyncs() int64 {
	if db.xlog == nil {
		return 0
	}
	return db.xlog.fsyncs.Load()
}

var _ relational.Engine = (*DB)(nil)
