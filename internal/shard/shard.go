// Package shard hash-partitions one view's base-table rows across N
// relational databases so that the per-shard row stores, indexes,
// commit latches and page stores partition memory and contention while
// the executor stack above keeps seeing a single relational.Engine.
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
// none. Durability does not partition: the shards are the members of ONE
// write-ahead log (relational.OpenLog), so a cross-shard commit is one
// record carrying every shard's redo — one fsync, atomic by its CRC —
// and commits on different shards share the log's flushes (commit.go).
package shard

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/relational"
)

// Options configures a shard group.
type Options struct {
	// Dir is the group's root directory: the group's one log lives there
	// and shard i keeps its pages under Dir/shard-<i>. Empty runs the
	// whole group in memory (no log, no recovery).
	Dir string
	// WAL configures the log; PageCacheBytes is split across the shards.
	WAL relational.WALOptions
}

// DB is a shard group: N relational databases behind one Engine.
type DB struct {
	schema *relational.Schema
	shards []*relational.Database
	rds    []relational.Reader // shards, pre-typed for the merge helpers
	n      int
	routes map[string]*tableRoute

	// pkMoved flips (permanently) when an UpdateRow changes a root
	// table's primary key: the moved row no longer lives on its hash
	// shard, so the insert-time shortcut that skips cross-shard PK
	// probes for hash-routed roots is disabled from then on.
	pkMoved atomic.Bool

	// xmu orders cross-shard commits against vector pins: BeginTxn and
	// OpenSnapshot hold the read side while pinning all N shards, the
	// log's writer stage (or, in memory, the committer) holds the write
	// side while it publishes a cross-shard commit's parts, so no reader
	// ever observes a cross-shard transaction on a strict subset of its
	// shards.
	xmu sync.RWMutex

	log          *relational.WAL // nil in memory
	crossCommits atomic.Int64
	crossAborts  atomic.Int64
}

// Recovery aggregates what opening the group's log found.
type Recovery struct {
	// Shards holds each shard's recovery report, indexed by shard.
	Shards []relational.RecoveryInfo `json:"shards"`
}

// tableRoute is the per-table routing metadata derived from the schema.
type tableRoute struct {
	td *relational.TableDef
	pk keySet
	// fk is the co-location edge: the table's first foreign key, nil
	// for root tables; fkCols are its columns' positions.
	fk     *relational.ForeignKey
	fkCols []int
	// uniques are the column sets whose uniqueness spans shards and so
	// must be scatter-probed: the primary key (when present, always
	// first) and each UNIQUE column.
	uniques []keySet
}

// keySet is a set of key columns by name, as probes take them, and by
// position, as rows hold them.
type keySet struct {
	names []string
	cols  []int
}

// New builds an empty shard group over the schema and, with a Dir, opens
// the group's log, recovering whatever it holds exactly like
// relational.OpenWAL does for a single database (a group nothing was
// ever committed to recovers with every shard's CommitSeq at zero;
// stream its dataset in with Load). A Dir in another on-disk format is
// refused with relational.ErrDataDirFormat and left as it was. n < 1 is
// clamped to 1; a group of 1 delegates everything to its only shard and
// is byte-for-byte equivalent to an unsharded database.
func New(schema *relational.Schema, n int, opts Options) (*DB, *Recovery, error) {
	n = max(n, 1)
	db := &DB{
		schema: schema,
		shards: make([]*relational.Database, n),
		rds:    make([]relational.Reader, n),
		n:      n,
		routes: buildRoutes(schema),
	}
	dirs := make([]string, n)
	for i := range db.shards {
		s := relational.NewDatabase(schema)
		s.SetRowIDAlloc(relational.RowID(i+1), relational.RowID(n))
		db.shards[i], db.rds[i], dirs[i] = s, s, shardDir(opts.Dir, i)
	}
	rec := &Recovery{Shards: make([]relational.RecoveryInfo, n)}
	if opts.Dir == "" {
		return db, rec, nil
	}
	walOpts := opts.WAL
	if walOpts.PageCacheBytes > 0 && n > 1 {
		// The configured budget bounds the GROUP's page cache: each
		// shard's pool gets an equal slice (rounded up) so the sum stays
		// within one slice of the configured total.
		walOpts.PageCacheBytes = (walOpts.PageCacheBytes + int64(n) - 1) / int64(n)
	}
	// The shards' pages are read and their records replayed in parallel,
	// so the group's recovery wall time is the slowest shard's.
	log, infos, err := relational.OpenLog(opts.Dir, walOpts, db.shards, dirs)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: %w", err)
	}
	db.log = log
	copy(rec.Shards, infos)
	for i, s := range db.shards {
		// Recovery replays whatever ids the log held; realign the
		// allocator so fresh ids resume on this shard's stripe.
		s.SetRowIDAlloc(relational.RowID(i+1), relational.RowID(n))
	}
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

// Checkpoint runs one checkpoint pass over the group's log: one
// barrier and rotation, then every shard's page install in parallel (a
// no-op in memory).
func (db *DB) Checkpoint() error { return db.shards[0].Checkpoint() }

// seedTxn is one batch of a Load: a Txn whose inserts skip the
// cross-shard uniqueness probes (a generator's keys are distinct;
// routing still reads the batch's own sub-transactions, so a child
// finds the parent inserted before it) and whose Commit publishes each
// shard's sub-transaction on its own — an interrupted load is redone,
// never recovered, so the batch need not be atomic across shards.
type seedTxn struct{ *Txn }

func (t seedTxn) InsertRow(table string, row []relational.Value) (relational.RowID, error) {
	return t.sub(t.db.routeInsert(t.readers, table, row)).InsertRow(table, row)
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
		rt := &tableRoute{td: td, pk: keySetOf(td, td.PrimaryKey)}
		if len(td.ForeignKeys) > 0 {
			rt.fk = &td.ForeignKeys[0]
			rt.fkCols = keySetOf(td, rt.fk.Columns).cols
		}
		if len(td.PrimaryKey) > 0 {
			rt.uniques = append(rt.uniques, rt.pk)
		}
		for _, c := range td.Columns {
			if c.Unique {
				rt.uniques = append(rt.uniques, keySetOf(td, []string{c.Name}))
			}
		}
		routes[td.Name] = rt
	}
	return routes
}

// keySetOf resolves key column names the schema validated.
func keySetOf(td *relational.TableDef, names []string) keySet {
	ks := keySet{names: names, cols: make([]int, len(names))}
	for i, n := range names {
		ks.cols[i], _ = td.ColumnIndex(n)
	}
	return ks
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
// seen), the primary-key hash otherwise. row holds the values in
// declared column order. Unroutable rows (unknown table, a row of
// another width, NULL key components, missing parent) fall back
// deterministically — the target shard's own constraint checks then
// produce the canonical error.
func (db *DB) routeInsert(rds func() []relational.Reader, table string, row []relational.Value) int {
	if db.n == 1 {
		return 0
	}
	rt := db.routes[table]
	if rt == nil || len(row) != len(rt.td.Columns) {
		return 0
	}
	if rt.fk != nil {
		if vals, ok := keyVals(rt.td, rt.fkCols, row); ok {
			for j, rd := range rds() {
				if ids, err := rd.LookupEqual(rt.fk.RefTable, rt.fk.RefColumns, vals); err == nil && len(ids) > 0 {
					return j
				}
			}
		}
	}
	if len(rt.pk.cols) > 0 {
		if vals, ok := keyVals(rt.td, rt.pk.cols, row); ok {
			return int(hashVals(vals) % uint64(db.n))
		}
	}
	return 0
}

// keyVals extracts and type-coerces the columns at positions cols of a
// row in declared column order. ok is false when any component is NULL
// — such keys do not participate in routing or cross-shard probes
// (NULLs never collide, and a NULL key component fails locally anyway).
func keyVals(td *relational.TableDef, cols []int, row []relational.Value) ([]relational.Value, bool) {
	out := make([]relational.Value, len(cols))
	for i, c := range cols {
		v := row[c]
		if v.IsNull() {
			return nil, false
		}
		if cv, err := v.CoerceTo(td.Columns[c].Type); err == nil {
			v = cv
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
// caught too). row holds the values in declared column order. exclude
// skips the row being updated; changed, when non-nil, flags by position
// the columns an update touched and restricts probing to their sets. The
// primary key of a root table is skipped while the hash co-location
// invariant holds (see DB.pkMoved). Two transactions concurrently
// inserting the same key onto different shards can both pass the probe
// — the same write-skew window the engine's snapshot-isolation FK
// checks already document — and is accepted as this layer's isolation
// level.
func (db *DB) checkCrossUnique(rds func() []relational.Reader, home int, table string, row []relational.Value, exclude relational.RowID, changed []bool) error {
	if db.n == 1 {
		return nil
	}
	rt := db.routes[table]
	if rt == nil || len(row) != len(rt.td.Columns) {
		return nil
	}
	for si, set := range rt.uniques {
		if changed != nil && !intersects(set.cols, changed) {
			continue
		}
		isPK := si == 0 && len(rt.pk.cols) > 0 // PK is always uniques[0] when present
		if isPK && rt.fk == nil && !db.pkMoved.Load() {
			continue // hash routing already co-locates duplicates
		}
		vals, ok := keyVals(rt.td, set.cols, row)
		if !ok {
			continue
		}
		for j, rd := range rds() {
			if j == home {
				continue
			}
			ids, err := rd.LookupEqual(table, set.names, vals)
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
					kind, table, joinCols(set.names), id, j)
			}
		}
	}
	return nil
}

func intersects(cols []int, changed []bool) bool {
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

func (db *DB) Scan(table string, fn func(*relational.Row) bool) error {
	return scanMerged(db.rds, table, fn)
}

func (db *DB) LookupEqual(table string, columns []string, values []relational.Value) ([]relational.RowID, error) {
	return idsMerged(db.rds, table, columns, values)
}

func (db *DB) LookupRows(table string, columns []string, values []relational.Value) ([]relational.Row, error) {
	return lookupMerged(db.rds, table, columns, values)
}

func (db *DB) HasIndexOn(table string, columns []string) bool {
	return db.shards[0].HasIndexOn(table, columns)
}

func (db *DB) RowCount(table string) int {
	if db.n == 1 {
		return db.shards[0].RowCount(table)
	}
	n := 0
	for _, s := range db.shards {
		n += s.RowCount(table)
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
// Retaining the *Row pointers across the sub-scans is safe: every row
// a scan hands out is decoded for it.
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
// deterministic order. Each per-shard probe is a sub-µs index lookup,
// so the shards are probed in turn on the caller's goroutine; the
// lowest-index error wins.
func lookupMerged(rds []relational.Reader, table string, columns []string, values []relational.Value) ([]relational.Row, error) {
	if len(rds) == 1 {
		return rds[0].LookupRows(table, columns, values)
	}
	var out []relational.Row
	for _, rd := range rds {
		rows, err := rd.LookupRows(table, columns, values)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// idsMerged is lookupMerged for LookupEqual: the shards' ids, ascending.
func idsMerged(rds []relational.Reader, table string, columns []string, values []relational.Value) ([]relational.RowID, error) {
	if len(rds) == 1 {
		return rds[0].LookupEqual(table, columns, values)
	}
	var out []relational.RowID
	for _, rd := range rds {
		ids, err := rd.LookupEqual(table, columns, values)
		if err != nil {
			return nil, err
		}
		out = append(out, ids...)
	}
	slices.Sort(out)
	return out, nil
}

// ---- Engine: transactions, lifecycle, statistics and maintenance.

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

// Stats folds the shards' statistics and, once, the log's own
// (obs.FoldStats): a group of one is its only shard.
func (db *DB) Stats() relational.DBStats {
	if db.n == 1 {
		return db.shards[0].Stats()
	}
	parts := make([]relational.DBStats, 0, db.n+1)
	for _, s := range db.shards {
		parts = append(parts, s.Stats())
	}
	if db.log != nil {
		parts = append(parts, db.log.Stats())
	}
	return obs.FoldStats(parts...)
}

// LastFsyncNanos is the group's one log's (every shard reports it).
func (db *DB) LastFsyncNanos() int64 { return db.shards[0].LastFsyncNanos() }

func (db *DB) StartReclaimer(interval time.Duration) (stop func()) {
	stops := make([]func(), len(db.shards))
	for i, s := range db.shards {
		stops[i] = s.StartReclaimer(interval)
	}
	return func() {
		for _, stop := range stops {
			stop()
		}
	}
}

// StartCheckpointer runs one checkpointer for the group's log.
func (db *DB) StartCheckpointer(interval time.Duration) (stop func()) {
	return db.shards[0].StartCheckpointer(interval)
}

// CloseWAL closes the group's log.
func (db *DB) CloseWAL() error { return db.shards[0].CloseWAL() }

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

// XlogFsyncs counts the log's commit-path fsyncs that made a
// cross-shard record durable.
func (db *DB) XlogFsyncs() int64 {
	if db.log == nil {
		return 0
	}
	return db.log.AcrossFsyncs()
}

var _ relational.Engine = (*DB)(nil)
