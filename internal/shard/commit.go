package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/relational"
)

// CommitShared commits each member through commitOne, in order, and
// returns one error slot per member: members succeed and fail
// independently, a nil member is skipped, and a transaction this group
// did not begin is refused without disturbing its neighbours.
func (db *DB) CommitShared(txns []relational.WriteTxn) []error {
	if db.n == 1 {
		return db.shards[0].CommitShared(txns)
	}
	errs := make([]error, len(txns))
	for i, wt := range txns {
		switch t := wt.(type) {
		case nil:
		case *Txn:
			errs[i] = db.commitOne(t)
		default:
			errs[i] = fmt.Errorf("shard: CommitShared: foreign transaction type %T", wt)
		}
	}
	return errs
}

// commitOne is Txn.Commit: it routes the transaction by the shards it
// dirtied, with no slice, map or goroutine between the caller and the
// shard's commit latch — on one core the per-commit CPU this saves
// comes straight out of the gap between consecutive fsyncs, which is
// what bounds how deep the per-shard flush streams actually overlap.
// Disjoint writers overlap because each shard's WAL writer stage runs
// its own fsync stream.
func (db *DB) commitOne(t *Txn) error {
	dirty, count := -1, 0
	for i, sub := range t.subs {
		if sub != nil && sub.OpCount() > 0 {
			dirty = i
			count++
		}
	}
	switch count {
	case 0:
		// Read-only: commit one acquired sub for the normal lifecycle
		// accounting, roll back the rest.
		for i, sub := range t.subs {
			if sub != nil {
				err := db.shards[i].CommitGroup(sub)
				t.finishExceptShard(i)
				return err
			}
		}
		return nil
	case 1:
		err := db.shards[dirty].CommitGroup(t.subs[dirty])
		t.finishExceptShard(dirty)
		return err
	default:
		return db.commitCross(t)
	}
}

// commitCross publishes one transaction across its dirty shards with an
// ordered two-phase claim/publish:
//
//	prepare: each dirty shard, in ascending order, force-flushes the
//	         transaction's redo tagged with a fresh cross-shard id
//	         (xid) and holds its commit latch (PrepareGroup);
//	decide:  the coordinator log appends the xid and fsyncs — this
//	         single write is the commit point;
//	publish: every shard stamps its versions visible and releases its
//	         latch (Publish).
//
// Only the publish phase runs under the write side of the vector latch
// — the shortest window that keeps readers from pinning a vector
// between two shards' publishes. Prepares run WITHOUT the vector latch:
// concurrent cross-shard commits acquire shard latches in ascending
// shard order, which is deadlock-free (and deadlock-free against the
// single-shard path, which only ever holds one latch), and prepared
// stamps stay invisible until the publish advances each shard's commit
// sequence. Freeing the prepare and decide phases from the vector latch
// is what lets concurrent decide-point fsyncs batch in the coordinator
// log's group commit below.
//
// Recovery replays a shard's xid-tagged record only if the coordinator
// log holds the xid (WALOptions.XidCommitted): a crash before the
// decide point aborts the transaction on every shard, a crash after it
// commits it on every shard — never a torn prefix. An in-memory group
// (no coordinator log) skips the decide write; prepare/publish still
// give atomic visibility.
//
// Conflict handling needs nothing new: write-write conflicts surface at
// claim time inside the sub-transactions (relational.ErrWriteConflict),
// before commit is ever attempted, and the plan layer's existing retry
// loop re-runs the whole cross-shard apply.
func (db *DB) commitCross(t *Txn) error {
	ds := t.dirtyShards()
	xid := db.nextXid.Add(1)
	consumed := make(map[int]bool, len(ds))
	pgs := make([]*relational.PreparedGroup, 0, len(ds))
	var err error
	for _, s := range ds {
		pg, perr := db.shards[s].PrepareGroup(xid, []*relational.Txn{t.subs[s]})
		if perr != nil {
			// PrepareGroup undid and forgot the sub-transaction itself.
			consumed[s] = true
			err = fmt.Errorf("shard %d: %w", s, perr)
			break
		}
		pgs = append(pgs, pg)
		consumed[s] = true
	}
	if err == nil && db.xlog != nil {
		if werr := db.xlog.append(xid); werr != nil {
			err = fmt.Errorf("%w: coordinator log: %v", relational.ErrWALFailed, werr)
		}
	}
	if err != nil {
		// Aborts need no vector latch: the prepared stamps were never
		// published, so undoing them is invisible to every reader.
		for _, pg := range pgs {
			_ = pg.Abort()
		}
		t.finishExcept(consumed)
		db.crossAborts.Add(1)
		return err
	}
	db.xmu.Lock()
	var pubErr error
	for _, pg := range pgs {
		if perr := pg.Publish(); perr != nil && pubErr == nil {
			pubErr = perr
		}
	}
	db.xmu.Unlock()
	t.finishExcept(consumed)
	db.crossCommits.Add(1)
	// Maintenance (reclaim, threshold checkpoints) runs after every
	// latch is released: Publish itself must stay latch-short, and a
	// checkpoint inside the vector latch would stall every reader.
	for _, s := range ds {
		db.shards[s].MaybeMaintain()
	}
	return pubErr
}

// xlog is the cross-shard coordinator log: an append-only file of
// committed xids, one CRC-framed uvarint per cross-shard commit. The
// append+fsync is the 2PC decide point. The log is never compacted — at
// ~12 bytes per cross-shard commit it grows slower than any shard's
// WAL, and recovery reads it once into a set; a future checkpoint could
// fold xids below every shard's checkpoint sequence away.
//
// Appends group-commit: concurrent callers enqueue their xids and one
// leader writes every pending frame with a single fsync, so N
// simultaneous cross-shard commits pay one decide-point flush, not N.
type xlog struct {
	mu       sync.Mutex
	f        *os.File
	pending  []xlogWaiter // xids enqueued for the next flush
	flushing bool         // a leader is draining pending
	appends  atomic.Int64 // xids made durable
	fsyncs   atomic.Int64 // Sync calls that covered them
}

// xlogWaiter is one enqueued decide-point append; done (buffered 1)
// receives the flush outcome.
type xlogWaiter struct {
	xid  uint64
	done chan error
}

// openXlog reads the committed-xid set (truncating any torn tail, as a
// crash mid-append leaves one) and opens the file for appending.
func openXlog(path string) (*xlog, map[uint64]bool, uint64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	committed := make(map[uint64]bool)
	var maxXid uint64
	var off int64
	buf, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	for {
		if len(buf)-int(off) < 8 {
			break
		}
		frame := buf[off:]
		n := binary.LittleEndian.Uint32(frame[0:4])
		crc := binary.LittleEndian.Uint32(frame[4:8])
		if n == 0 || n > 16 || len(frame) < 8+int(n) {
			break
		}
		payload := frame[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		xid, k := binary.Uvarint(payload)
		if k <= 0 {
			break
		}
		committed[xid] = true
		if xid > maxXid {
			maxXid = xid
		}
		off += int64(8 + n)
	}
	if off < int64(len(buf)) {
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return &xlog{f: f}, committed, maxXid, nil
}

// append durably records a committed xid; returning nil means the
// decision is on disk. Concurrent appends batch: whoever finds no flush
// in progress becomes the leader and drains the pending queue —
// including xids enqueued while it was flushing — writing each batch
// with one Sync; everyone else parks on its done channel.
func (x *xlog) append(xid uint64) error {
	x.mu.Lock()
	if x.f == nil {
		x.mu.Unlock()
		return fmt.Errorf("shard: coordinator log is closed")
	}
	done := make(chan error, 1)
	x.pending = append(x.pending, xlogWaiter{xid: xid, done: done})
	if x.flushing {
		x.mu.Unlock()
		return <-done
	}
	x.flushing = true
	for len(x.pending) > 0 {
		batch := x.pending
		x.pending = nil
		f := x.f
		x.mu.Unlock()
		err := flushXids(f, batch)
		if err == nil {
			x.appends.Add(int64(len(batch)))
			x.fsyncs.Add(1)
		}
		for _, wtr := range batch {
			wtr.done <- err
		}
		x.mu.Lock()
	}
	x.flushing = false
	x.mu.Unlock()
	return <-done
}

// flushXids writes every waiter's frame and makes them durable with a
// single fsync. f is captured under x.mu by the leader; a concurrent
// close surfaces here as a write/sync error distributed to the batch.
func flushXids(f *os.File, batch []xlogWaiter) error {
	if f == nil {
		return fmt.Errorf("shard: coordinator log is closed")
	}
	var frames []byte
	for _, wtr := range batch {
		payload := binary.AppendUvarint(nil, wtr.xid)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		frames = append(frames, hdr[:]...)
		frames = append(frames, payload...)
	}
	off, _ := f.Seek(0, io.SeekCurrent)
	if _, err := f.Write(frames); err != nil {
		// Best-effort: cut any partial frame back off so a later append
		// cannot land behind garbage that recovery's scan would stop at.
		_ = f.Truncate(off)
		_, _ = f.Seek(off, io.SeekStart)
		return err
	}
	return f.Sync()
}

func (x *xlog) close() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.f == nil {
		return nil
	}
	err := x.f.Close()
	x.f = nil
	return err
}
