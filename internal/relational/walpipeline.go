package relational

import (
	"fmt"
	"os"
	"time"
)

// The WAL writer stage is the one place commits are batched, and it
// decouples commit durability from the commit latch. There is no
// scheduler above it: every committer calls Commit, and whatever queued
// while the previous fsync ran is the next batch. The committing
// goroutine encodes its group's record off-latch,
// then under commitMu only validates, assigns sequences and replaces
// claim stamps before handing the record to this stage and releasing
// the latch — so group N+1 validates and stamps while group N's fsync
// is in flight. The stage is a single goroutine draining a channel
// whose enqueue order IS sequence order (enqueues happen under
// commitMu), which makes it a sequence barrier for free: it writes and
// fsyncs each drained batch with ONE fsync, then publishes the batch's
// groups strictly in order — advancing commitSeq only after the group's
// record is durable — so no snapshot can ever observe group N+1 without
// group N, and an fsync failure rolls back exactly the affected groups
// with every follower notified.
//
// A 2PC prepare rides the same queue, so its acknowledgement still means
// "every earlier group has published", but the stage only APPENDS its
// record: the coordinator's record, which carries the same bytes, is what
// makes a cross-shard commit durable (Coordinator in wal.go). A batch
// holding only a prepare issues no fsync; one also holding a commit group
// flushes once, and a failed flush fails both. The preparer holds commitMu
// until it publishes or aborts, so a prepare is the last of its batch.

// walReq is one unit of work for the writer stage: a commit group to
// make durable and publish, a 2PC prepare (appended, NOT flushed for and
// NOT published — the preparer publishes or aborts under the latch it
// still holds), a checkpoint barrier, or a stop request.
type walReq struct {
	xid    uint64
	live   []*Txn
	bodies [][]byte // pre-encoded per-txn op bodies, parallel to live
	seq    uint64   // last sequence stamped into the group

	// frame is a prepare's record, framed by the preparer because the
	// coordinator's record needs the same bytes; nil for a commit group.
	frame []byte
	err   error // set by the write phase; routes to rollback

	// Where the record landed, for truncating failed batch tails.
	segIndex uint64
	off      int64
	wrote    int64

	barrier *walBarrier
	stop    bool
	done    chan error // buffered(1); receives the group's commit outcome
}

// walBarrier quiesces the writer for a checkpoint: when ready closes,
// every earlier group is durable and published and the writer parks
// until resume closes — so the checkpoint can rotate the active segment
// (the writer's file handle) under commitMu without racing it.
type walBarrier struct {
	ready  chan struct{}
	resume chan struct{}
}

// writerLoop is the writer stage: drain whatever has queued, process it
// as one batch (one fsync), repeat. Runs until a stop request.
func (w *WAL) writerLoop(db *Database) {
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
		if w.runBatch(db, batch) {
			return
		}
	}
}

// runBatch writes every group record in the batch, fsyncs once, then
// publishes (or rolls back) each group in order. Returns true on a stop
// request. The writer NEVER takes commitMu: stamping already happened,
// publishing is a single atomic store, and rollback needs only db.mu.
func (w *WAL) runBatch(db *Database, batch []*walReq) (stopped bool) {
	// Phase A: write all records, fsyncing at rotation boundaries and
	// once at the end. unsynced tracks the reqs written since the last
	// sync (always within the active segment: rotate syncs what it
	// seals); mustSync says one of them is a commit group. durable is
	// where a failed sync truncates back to: the length the batch found —
	// which keeps every prepare an earlier batch appended and acknowledged
	// without a flush — or the end of its own last good sync.
	var unsynced []*walReq
	mustSync := false
	durable := w.segBytes
	flush := func() {
		if !mustSync {
			return
		}
		mustSync = false
		if err := w.syncActive(); err != nil {
			w.truncateTo(durable)
			for _, r := range unsynced {
				r.err = err
			}
		} else {
			durable = w.segBytes
			// One commit group: every record this fsync made durable.
			db.groupCommits.Add(1)
		}
		unsynced = unsynced[:0]
	}
	for _, req := range batch {
		if req.barrier != nil || req.stop {
			continue // barrier/stop are enqueued under commitMu, hence last
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
		mustSync = mustSync || req.frame == nil
	}
	flush()

	// Phase B: resolve each request strictly in sequence order.
	for i, req := range batch {
		switch {
		case req.stop:
			req.done <- nil
			return true
		case req.barrier != nil:
			close(req.barrier.ready)
			<-req.barrier.resume
		case req.frame != nil:
			// Appended (or failed) — but publishing is the preparer's call;
			// it still holds commitMu and rolls back on error itself.
			w.pipeDepth.Add(-1)
			req.done <- req.err
		case req.err != nil:
			w.failGroup(db, req)
		default:
			if err := evalFailpoint(FpPipelinePublishBefore); err != nil {
				// The record IS durable; failing the group means it must
				// not survive on disk either, or recovery would replay a
				// rolled-back group. Truncate this record and everything
				// after it (all of which is failing too).
				w.truncateBatchTail(batch, i, err)
				w.failGroup(db, req)
				continue
			}
			db.commitSeq.Store(req.seq)
			db.groupedTxns.Add(int64(len(req.live)))
			for _, t := range req.live {
				t.log = nil
			}
			for _, t := range req.live {
				db.forget(t)
			}
			w.pipeDepth.Add(-1)
			req.done <- nil
		}
	}
	return false
}

// stopWriter drains and stops the writer stage: every already-enqueued
// group is written, fsynced and published (or rolled back) before the
// stop request acknowledges. Callers hold commitMu or otherwise exclude
// committers, so the stop request is necessarily last in the queue.
func (w *WAL) stopWriter() {
	req := &walReq{stop: true, done: make(chan error, 1)}
	w.pipe <- req
	<-req.done
	<-w.writerDone
}

// writeFrame appends one group's framed record to the active segment
// without syncing. On error the partial bytes are truncated away and
// segBytes stays put, so the failure cannot corrupt later records.
func (w *WAL) writeFrame(req *walReq) error {
	if err := evalFailpoint(FpWALAppendBefore); err != nil {
		return err
	}
	frame := req.frame
	if frame == nil {
		bufp := walFramePool.Get().(*[]byte)
		frame = frameGroup((*bufp)[:0], req.xid, req.live, req.bodies)
		defer func() {
			*bufp = frame[:0]
			walFramePool.Put(bufp)
		}()
	}
	req.segIndex = w.segIndex
	req.off = w.segBytes
	rest := frame
	wrote := 0
	if failpointFires(FpWALAppendPartial) {
		// A torn write: half the frame reaches the file, then the fault
		// fires (crash mode dies here, leaving the torn tail on disk for
		// recovery to discard; error mode falls through to the truncate).
		n, werr := w.f.Write(rest[:len(rest)/2])
		wrote += n
		if err := fireFailpoint(FpWALAppendPartial); err != nil {
			w.truncateActive(wrote)
			return err
		}
		if werr != nil {
			w.truncateActive(wrote)
			return werr
		}
		rest = rest[len(rest)/2:]
	}
	n, err := w.f.Write(rest)
	wrote += n
	if err != nil {
		w.truncateActive(wrote)
		return err
	}
	w.segBytes += int64(wrote)
	req.wrote = int64(wrote)
	w.appends.Add(1)
	w.bytes.Add(int64(wrote))
	return nil
}

// syncActive fsyncs the active segment, recording the fsync duration.
// An error (including the injected post-fsync fault, which fails the
// commit even though the bytes are durable) tells the caller to
// truncate back to the durable length and fail the unsynced groups.
func (w *WAL) syncActive() error {
	if err := evalFailpoint(FpWALFsyncBefore); err != nil {
		return err
	}
	syncStart := time.Now()
	if err := w.f.Sync(); err != nil {
		return err
	}
	fsyncNs := time.Since(syncStart).Nanoseconds()
	w.fsyncHist.Record(fsyncNs)
	w.lastFsyncNs.Store(fsyncNs)
	w.fsyncs.Add(1)
	return evalFailpoint(FpWALFsyncAfter)
}

// truncateTo cuts the active segment back to off (best-effort, like
// truncateActive: a failed truncate still stops recovery's CRC scan at
// the same point).
func (w *WAL) truncateTo(off int64) {
	_ = w.f.Truncate(off)
	_, _ = w.f.Seek(off, 0)
	w.segBytes = off
}

// truncateBatchTail fails every request from index from onward and
// removes their already-durable records from disk, so a recovery cannot
// replay groups whose commits were rolled back. Requests may span a
// rotation: sealed segments are truncated by path, the active one
// through the writer's handle.
func (w *WAL) truncateBatchTail(batch []*walReq, from int, cause error) {
	mins := make(map[uint64]int64)
	for _, r := range batch[from:] {
		if r.barrier != nil || r.stop {
			continue
		}
		if r.err == nil {
			r.err = cause
		}
		if r.wrote > 0 {
			if off, ok := mins[r.segIndex]; !ok || r.off < off {
				mins[r.segIndex] = r.off
			}
		}
	}
	for seg, off := range mins {
		if seg == w.segIndex {
			w.truncateTo(off)
		} else {
			_ = os.Truncate(segmentPath(w.dir, seg), off)
		}
	}
}

// failGroup rolls back one stamped group whose record never became (or
// was not allowed to remain) durable. Its stamps never published —
// commitSeq never reached them — so popping the versions under db.mu is
// invisible to every reader, exactly like a rollback.
func (w *WAL) failGroup(db *Database, req *walReq) {
	db.mu.Lock()
	for _, t := range req.live {
		_ = t.undoFromLocked(0)
		t.log = nil
	}
	db.mu.Unlock()
	for _, t := range req.live {
		db.forget(t)
	}
	w.pipeDepth.Add(-1)
	req.done <- fmt.Errorf("%w: %v", ErrWALFailed, req.err)
}
