package relational

import (
	"sync"
	"sync/atomic"
	"time"
)

// Snapshot is an immutable point-in-time view of a Database, pinned at
// the commit sequence current when Snapshot() was called. Taking one is
// O(1): nothing is copied — reads resolve row version chains at the
// pinned sequence, so a snapshot observes either all or none of any
// transaction's effects, forever, regardless of concurrent writers.
//
// A pinned snapshot retains the row versions it can see: Close it when
// done so the reclaimer may free them. Reads after Close still return
// data but lose the retention guarantee (a concurrent reclaim may have
// freed versions the snapshot would have seen); treat Close as the end
// of the snapshot's life. Snapshots are safe for concurrent use by
// multiple goroutines and never block behind a writer's transaction —
// only behind individual row-operation latches.
type Snapshot struct {
	reader
	seq    uint64
	closed atomic.Bool
}

// Snapshot pins the current committed state and returns its handle.
func (db *Database) Snapshot() *Snapshot {
	db.snapMu.Lock()
	s := &Snapshot{seq: db.commitSeq.Load()}
	s.reader = reader{db, s}
	db.snaps[s] = struct{}{}
	db.snapMu.Unlock()
	db.snapshotsOpened.Add(1)
	return s
}

// Close releases the snapshot's pin on old row versions. Idempotent.
func (s *Snapshot) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.db.snapMu.Lock()
		delete(s.db.snaps, s)
		s.db.snapMu.Unlock()
	}
}

// reader carries the Reader methods a registered reader (a Snapshot, a
// Txn) gets by embedding it. Each read resolves chains through at.resolve,
// and since the registration keeps the versions and the quarantined
// slots the reader can see, it collects refs under the read latch and
// resolves, faults and decodes after the latch drops (pager.go). Every
// row it hands out is decoded for the caller.
type reader struct {
	db *Database
	at interface{ resolve(*rowVersion) *rowVersion } // the Snapshot or Txn itself
}

// Schema returns the database schema (schemas are immutable).
func (r reader) Schema() *Schema { return r.db.schema }

// HasIndexOn reports whether an index covers exactly the named columns.
func (r reader) HasIndexOn(table string, columns []string) bool {
	return r.db.HasIndexOn(table, columns)
}

// Get returns the row with the given id as the reader sees it.
func (r reader) Get(table string, id RowID) (*Row, error) {
	return r.db.get(table, id, r.at.resolve, false)
}

// Scan visits every row the reader sees in insertion order; returning
// false stops the scan. No latch is held while the callback runs.
func (r reader) Scan(table string, fn func(*Row) bool) error {
	refs, td, err := r.db.collectRefs(table)
	if err != nil {
		return err
	}
	for _, ref := range refs {
		if row, ok := r.db.see(td, ref, r.at.resolve); ok && !fn(&row) {
			return nil
		}
	}
	return nil
}

// ScanIDs returns the ids of the rows the reader sees, in insertion
// order; nothing is faulted.
func (r reader) ScanIDs(table string) []RowID {
	refs, _, err := r.db.collectRefs(table)
	if err != nil {
		return nil
	}
	out := make([]RowID, 0, len(refs))
	for _, ref := range refs {
		if ref.sees(r.at.resolve) {
			out = append(out, ref.id)
		}
	}
	return out
}

// LookupEqual returns the ids of the rows the reader sees whose named
// columns equal the given values. Index buckets keep entries for
// superseded versions until reclaim, which is what makes a lookup
// complete for a pinned reader; each candidate is re-verified on the
// probed columns it decodes (lookupIDs).
func (r reader) LookupEqual(table string, columns []string, values []Value) ([]RowID, error) {
	return r.db.lookupIDs(nil, table, columns, values, r.at.resolve, false)
}

// LookupRows is LookupEqual returning each match with the values that
// verified it (see Reader).
func (r reader) LookupRows(table string, columns []string, values []Value) ([]Row, error) {
	return r.db.lookup(table, columns, values, r.at.resolve, false)
}

// RowCount returns the number of rows the reader sees in the table.
// Unlike the live Database's O(1) counter this walks the table.
func (r reader) RowCount(table string) int { return len(r.ScanIDs(table)) }

// TotalRows returns the number of rows the reader sees across all
// tables.
func (r reader) TotalRows() int {
	n := 0
	for _, name := range r.db.SortedTableNames() {
		n += r.RowCount(name)
	}
	return n
}

// resolve returns the version of a chain the snapshot sees, nil for none.
func (s *Snapshot) resolve(head *rowVersion) *rowVersion { return head.visibleAt(s.seq) }

// oldestVisibleSeq is the reclaim horizon: the minimum over every
// pinned snapshot's sequence, every active transaction's read
// sequence and the current commit sequence. Versions whose end stamp
// is at or below it are invisible to every present and future reader.
// (Claim stamps compare greater than any sequence, so versions touched
// by in-flight transactions are never reclaimed regardless of the
// horizon.)
func (db *Database) oldestVisibleSeq() uint64 {
	min := db.commitSeq.Load()
	db.snapMu.Lock()
	for s := range db.snaps {
		if s.seq < min {
			min = s.seq
		}
	}
	db.snapMu.Unlock()
	db.txnMu.Lock()
	for t := range db.txns {
		if t.readSeq < min {
			min = t.readSeq
		}
	}
	db.txnMu.Unlock()
	return min
}

// reclaimThreshold is how many versions may accumulate before a commit
// piggybacks an inline reclaim pass (see commitMaintenance).
const reclaimThreshold = 4096

// Reclaim frees row versions that no pinned snapshot (and no future
// reader) can see: dead version-chain tails are truncated, fully-dead
// rows leave the row map, the id column and their index buckets. It
// returns the number of versions freed. Reclaim is a writer and must
// be serialized with mutations like any other write; it runs
// automatically on commits (every reclaimThreshold versions) and from
// the optional background reclaimer.
func (db *Database) Reclaim() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.reclaimLocked()
}

func (db *Database) reclaimLocked() int {
	minSeq := db.oldestVisibleSeq()
	upTo := min(minSeq, db.checkpointSeq.Load())
	freed := 0
	for _, td := range db.tables {
		for id, head := range td.rows {
			// An entire chain invisible to every reader is dropped — unless
			// the row still has a page slot, whose page would then bring it
			// back: its dead head stays until the pass that clears the slot
			// (the tombstone rule, pager.go), and only its tail goes below.
			paged := td.slotOf(id) != 0
			if !paged && head.end.Load() <= minSeq {
				freed += td.dropChainLocked(id, head)
				continue
			}
			// Truncate the dead tail: versions with end <= minSeq are
			// invisible to every snapshot at or above the horizon.
			for v := head; ; {
				p := v.prev.Load()
				if p == nil {
					break
				}
				if p.end.Load() > minSeq {
					v = p
					continue
				}
				v.prev.Store(nil)
				for q := p; q != nil; q = q.prev.Load() {
					removeVersionEntries(td, id, q, head)
					freed++
				}
				break
			}
			// A cold row whose page holds its one version, which every
			// reader sees, keeps no version and faults back through the
			// buffer pool — the release valve that keeps resident state
			// bounded when the dataset exceeds RAM.
			if paged {
				dropCleanLocked(td, id, head, upTo)
			}
		}
		// Compact when removals above or rollbacks (undoInsert) flagged
		// the id column.
		td.compactLocked()
	}
	db.drainPageQuarantineLocked()
	db.versionsSinceReclaim.Store(0)
	db.versionsReclaimed.Add(int64(freed))
	db.reclaims.Add(1)
	return freed
}

// StartReclaimer runs Reclaim on the given interval in a background
// goroutine until the returned stop function is called (idempotent).
// Long-running hosts (the ufilterd daemon) use it so version chains
// stay shallow even when traffic never commits enough to trip the
// inline threshold; short-lived uses can rely on commit piggybacking
// alone.
func (db *Database) StartReclaimer(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				db.Reclaim()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// VersionStats describes the version store's shape: how much history
// the chains hold (the snapshot, reclaim and commit-sequence counters
// are DBStats'). Computing it walks every chain — debugging/metrics
// cost, not a hot-path one.
type VersionStats struct {
	// LiveRows counts rows visible to a latest read; VisibleRows those
	// visible at the snapshot's pinned sequence (uncommitted writer state
	// excluded); ResidentRows those with a version in memory (every row
	// without a WAL; with one, the rest are page-only and keep none).
	// Versions counts every stored version, so a paged database whose
	// readers all see its checkpointed rows stores few or none.
	LiveRows      int `json:"live_rows" stat:",gauge,sum"`
	VisibleRows   int `json:"visible_rows" stat:",gauge,sum"`
	Versions      int `json:"versions" stat:"row_versions,gauge,sum" help:"Row versions currently stored, including history (page-only rows store none)."`
	ResidentRows  int `json:"resident_rows" stat:",gauge,sum"`
	MaxChainDepth int `json:"max_chain_depth" stat:"version_chain_depth_max,gauge,max" help:"Longest row version chain (1 = no history)."`
}

// VersionStats reports the store's shape with VisibleRows counted at
// the snapshot's pinned sequence — the coherent point-in-time row
// count statistics handlers serve, sharing the single chain walk with
// the depth/version counters instead of walking the store twice.
func (s *Snapshot) VersionStats() VersionStats {
	return s.db.versionStatsAt(s.seq)
}

func (db *Database) versionStatsAt(seq uint64) VersionStats {
	// Collect under the latch, walk chains lock-free (ends and prev
	// links are atomics, content immutable) — an O(total versions)
	// walk must not hold the read latch, or a stats scrape would queue
	// a writer and, through RWMutex writer preference, stall the very
	// checks this engine promises never wait.
	vs := VersionStats{}
	db.mu.RLock()
	heads := make([]*rowVersion, 0, 256)
	for _, td := range db.tables {
		vs.LiveRows += td.live
		for _, slot := range td.slots {
			if slot != 0 {
				vs.VisibleRows++ // page-only rows, less the paged heads below
			}
		}
		for id, head := range td.rows {
			heads = append(heads, head)
			if td.slotOf(id) != 0 {
				vs.VisibleRows--
			}
		}
	}
	db.mu.RUnlock()
	for _, head := range heads {
		depth := 0
		for v := head; v != nil; v = v.prev.Load() {
			depth++
		}
		vs.Versions += depth
		if depth > vs.MaxChainDepth {
			vs.MaxChainDepth = depth
		}
		if head.visibleAt(seq) != nil {
			vs.VisibleRows++
		}
	}
	vs.ResidentRows = len(heads)
	return vs
}
