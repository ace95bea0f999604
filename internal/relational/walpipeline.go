package relational

import (
	"fmt"
	"sync"
	"time"
)

// The WAL writer stage is the one place commits are batched, and it
// decouples commit durability from the commit latches. There is no
// scheduler above it: every committer calls Commit, and whatever queued
// while the previous fsync ran is the next batch — single-member groups
// of any members and transactions across members alike. The committing
// goroutine encodes its record's bodies off-latch, then under its
// members' commit latches only validates, assigns sequences and
// replaces claim stamps before handing the record to this stage and
// releasing the latches — so group N+1 validates and stamps while group
// N's fsync is in flight. The stage is a single goroutine draining a
// channel whose enqueue order IS each member's sequence order (a record
// is enqueued under the latches of every member it commits on), which
// makes it a sequence barrier for free: it writes and fsyncs each
// drained batch with ONE fsync, then publishes the batch's records
// strictly in order — advancing each member's commitSeq only after the
// record is durable — so no snapshot can ever observe group N+1 without
// group N, and an fsync failure rolls back exactly the affected records
// on every member they touch, with every waiter notified.

// walPart is one member's share of a record: its stamped transactions,
// their pre-encoded op bodies and the last sequence stamped.
type walPart struct {
	db     *Database
	live   []*Txn
	bodies [][]byte // parallel to live
	seq    uint64
}

// walReq is one unit of work for the writer stage: a record to make
// durable and publish (a part per member it commits on, ascending by
// member), a checkpoint barrier, or a stop request.
type walReq struct {
	parts []walPart
	one   [1]walPart  // parts' backing store for a single-member record
	vec   sync.Locker // held across a multi-part publish; may be nil
	err   error       // set by the write phase; routes to rollback

	barrier *walBarrier
	stop    bool
	done    chan error // buffered(1); receives the record's commit outcome
}

// walBarrier quiesces the writer for a checkpoint: when ready closes,
// every earlier record is durable and published and the writer parks
// until resume closes — so the checkpoint can rotate the active segment
// (the writer's file handle) under the commit latches without racing it.
type walBarrier struct {
	ready  chan struct{}
	resume chan struct{}
}

// writerLoop is the writer stage: drain whatever has queued, process it
// as one batch (one fsync), repeat. Runs until a stop request.
func (w *WAL) writerLoop() {
	defer close(w.writerDone)
	for {
		req, ok := <-w.pipe
		if !ok {
			return
		}
		batch := []*walReq{req}
	drain:
		for {
			select {
			case r := <-w.pipe:
				batch = append(batch, r)
			default:
				break drain
			}
		}
		if w.runBatch(batch) {
			return
		}
	}
}

// runBatch writes every record in the batch, fsyncs once, then publishes
// (or rolls back) each in order. Returns true on a stop request. The
// writer NEVER takes a commit latch: stamping already happened,
// publishing is a store per member, and rollback needs only each
// member's db.mu.
func (w *WAL) runBatch(batch []*walReq) (stopped bool) {
	// Phase A: write all records, fsyncing at rotation boundaries and
	// once at the end. unsynced tracks the reqs written since the last
	// sync (always within the active segment: rotate syncs what it
	// seals); durable is where a failed sync truncates back to: the
	// length the batch found, or the end of its own last good sync.
	var unsynced []*walReq
	durable := w.segBytes
	flush := func() {
		if len(unsynced) == 0 {
			return
		}
		if err := w.syncActive(); err != nil {
			w.truncateTo(durable)
			for _, r := range unsynced {
				r.err = err
			}
		} else {
			durable = w.segBytes
			// One commit group: every record this fsync made durable.
			w.groupCommits.Add(1)
			for _, r := range unsynced {
				if len(r.parts) > 1 {
					w.acrossFsyncs.Add(1)
					break
				}
			}
		}
		unsynced = unsynced[:0]
	}
	for _, req := range batch {
		if req.barrier != nil || req.stop {
			continue // barrier/stop are enqueued under every latch, hence last
		}
		if w.segBytes >= w.opts.SegmentBytes {
			flush()
			if err := w.rotate(); err != nil {
				req.err = err
				continue
			}
			durable = 0
		}
		if err := w.writeFrame(req); err != nil {
			req.err = err
			continue
		}
		unsynced = append(unsynced, req)
	}
	flush()

	// Phase B: resolve each request strictly in sequence order.
	for _, req := range batch {
		switch {
		case req.stop:
			req.done <- nil
			return true
		case req.barrier != nil:
			close(req.barrier.ready)
			<-req.barrier.resume
		case req.err != nil:
			w.failRecord(req)
		default:
			w.publishRecord(req)
		}
	}
	return false
}

// publish advances each part's commit sequence past its stamps — under
// vec, if any, so a vector reader sees all the parts or none.
func (req *walReq) publish() {
	if req.vec != nil {
		req.vec.Lock()
		defer req.vec.Unlock()
	}
	for i := range req.parts {
		req.parts[i].db.commitSeq.Store(req.parts[i].seq)
	}
}

// publishRecord makes a durable record visible and acknowledges it.
func (w *WAL) publishRecord(req *walReq) {
	req.publish()
	txns := int64(1) // a record across members is one transaction
	if len(req.parts) == 1 {
		txns = int64(len(req.parts[0].live))
	}
	w.groupedTxns.Add(txns)
	req.finish()
	w.pipeDepth.Add(-1)
	req.done <- nil
}

// failRecord rolls back every part of a stamped record whose bytes never
// became durable. Its stamps never published — no commitSeq reached
// them — so popping the versions under each member's db.mu is invisible
// to every reader, exactly like a rollback.
func (w *WAL) failRecord(req *walReq) {
	req.undo()
	w.pipeDepth.Add(-1)
	req.done <- fmt.Errorf("%w: %v", ErrWALFailed, req.err)
}

// stopWriter drains and stops the writer stage: every already-enqueued
// record is written, fsynced and published (or rolled back) before the
// stop request acknowledges. Callers hold every member's commitMu, so
// the stop request is necessarily last in the queue.
func (w *WAL) stopWriter() {
	req := &walReq{stop: true, done: make(chan error, 1)}
	w.pipe <- req
	<-req.done
	<-w.writerDone
}

// writeFrame appends one record's frame to the active segment without
// syncing. On error the partial bytes are truncated away and segBytes
// stays put, so the failure cannot corrupt later records.
func (w *WAL) writeFrame(req *walReq) error {
	bufp := walFramePool.Get().(*[]byte)
	frame := encodeRecord((*bufp)[:0], req)
	defer func() {
		*bufp = frame[:0]
		walFramePool.Put(bufp)
	}()
	if _, err := w.f.WriteAt(frame, w.segBytes); err != nil {
		w.truncateTo(w.segBytes)
		return err
	}
	w.segBytes += int64(len(frame))
	for i := range req.parts {
		p := &req.parts[i]
		w.activeMax[p.db.member] = max(w.activeMax[p.db.member], p.seq)
	}
	w.appends.Add(1)
	w.bytes.Add(int64(len(frame)))
	return nil
}

// syncActive fsyncs the active segment, recording the fsync duration.
// An error tells the caller to truncate back to the durable length and
// fail the unsynced records.
func (w *WAL) syncActive() error {
	syncStart := time.Now()
	if err := w.f.Sync(); err != nil {
		return err
	}
	fsyncNs := time.Since(syncStart).Nanoseconds()
	w.fsyncHist.Record(fsyncNs)
	w.lastFsyncNs.Store(fsyncNs)
	w.fsyncs.Add(1)
	return nil
}

// truncateTo cuts the active segment back to off, dropping what a
// failed append or fsync left past it, and extends it back to
// SegmentBytes, so the appends after it still overwrite zeros instead of
// growing the file (recovery trims the zeros). Best-effort: after a
// failed truncate, recovery's CRC scan still stops at the same point.
func (w *WAL) truncateTo(off int64) {
	_ = w.f.Truncate(off)
	if off < w.opts.SegmentBytes {
		_ = w.f.Truncate(w.opts.SegmentBytes)
	}
	w.segBytes = off
}
