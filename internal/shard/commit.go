package shard

import (
	"fmt"

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
// dirtied, with no heap slice, map or goroutine between the caller and
// the shards' commit latches — on one core the per-commit CPU this saves
// comes straight out of the gap between consecutive fsyncs, which is
// what bounds how deep the per-shard flush streams actually overlap.
// Disjoint writers overlap because each shard's WAL writer stage runs
// its own fsync stream.
func (db *DB) commitOne(t *Txn) error {
	dirty, first, count := -1, -1, 0
	for i, sub := range t.subs {
		if sub == nil {
			continue
		}
		if first < 0 {
			first = i
		}
		if sub.OpCount() > 0 {
			dirty = i
			count++
		}
	}
	if count > 1 {
		return db.commitCross(t)
	}
	if count == 0 { // read-only: one acquired sub commits, for the accounting
		if dirty = first; dirty < 0 {
			return nil
		}
	}
	err := db.shards[dirty].CommitGroup(t.subs[dirty])
	t.finishExcept([]prepared{{xlogPart: xlogPart{shard: dirty}}})
	return err
}

// commitCross publishes one transaction across its dirty shards with an
// ordered two-phase claim/publish in which the coordinator log's record
// is the only thing the commit waits for a flush of:
//
//	prepare: each dirty shard, in ascending order, stamps the
//	         transaction's redo under a fresh cross-shard id (xid), hands
//	         the record to its log's writer stage and keeps its commit
//	         latch (PrepareGroup); then every acknowledgement is collected
//	         — the record is appended to the shard log, flushed nowhere;
//	decide:  ONE coordinator record {xid, (shard, frame)…} carrying every
//	         shard's record is appended and fsynced — the commit point,
//	         atomic by its single CRC;
//	publish: every shard stamps its versions visible and releases its
//	         latch (Publish).
//
// Latches are taken in ascending shard order, which is deadlock-free
// against other cross-shard commits and against the single-shard path
// (which only ever holds one). Each is held from stamp to publish, so on
// every shard log order is sequence order and nothing lands behind an
// undecided record — the two facts recovery's repair rule rests on
// (relational's recoverFrom). Only the publish phase runs under the write
// side of the vector latch, the shortest window that keeps readers from
// pinning a vector between two shards' publishes.
//
// A crash before the decide point aborts the transaction on every shard
// and one after it commits it on every shard — from the coordinator's
// copy where a shard's own, never flushed, is gone. A failed shard append
// or coordinator flush aborts everywhere and leaves xid-tagged shard
// records no coordinator record names, which recovery filters. An
// in-memory group (no coordinator log) skips the decide write;
// prepare/publish still give atomic visibility.
func (db *DB) commitCross(t *Txn) error {
	xid := db.nextXid.Add(1)
	// The participants, ascending; a stack array for any realistic width.
	var scratch [8]prepared
	parts := scratch[:0]
	var err error
	for s, sub := range t.subs {
		if sub == nil || sub.OpCount() == 0 {
			continue
		}
		// Success or failure, PrepareGroup finishes the sub-transaction.
		pg, perr := db.shards[s].PrepareGroup(xid, sub)
		parts = append(parts, prepared{xlogPart: xlogPart{shard: s}, pg: pg})
		if perr != nil {
			err = fmt.Errorf("shard %d: %w", s, perr)
			break
		}
	}
	// Every started prepare is waited for, even when another failed: its
	// latch is ours until we publish or abort it.
	for i := range parts {
		p := &parts[i]
		if p.pg == nil {
			continue
		}
		p.seq = p.pg.Seq()
		frame, ferr := p.pg.Frame()
		if ferr != nil {
			p.pg = nil // undone, latch released
			if err == nil {
				err = fmt.Errorf("shard %d: %w", p.shard, ferr)
			}
		}
		p.frame = frame
	}
	if err == nil && db.xlog != nil {
		if werr := db.xlog.append(xid, parts); werr != nil {
			err = fmt.Errorf("%w: coordinator log: %v", relational.ErrWALFailed, werr)
		}
	}
	if err != nil {
		// Aborts need no vector latch: the prepared stamps were never
		// published, so undoing them is invisible to every reader.
		for _, p := range parts {
			if p.pg != nil {
				_ = p.pg.Abort() // only fails on a finished group, which these are not
			}
		}
		t.finishExcept(parts)
		db.crossAborts.Add(1)
		return err
	}
	db.xmu.Lock()
	var pubErr error
	for _, p := range parts {
		if perr := p.pg.Publish(); perr != nil && pubErr == nil {
			pubErr = perr
		}
	}
	db.xmu.Unlock()
	t.finishExcept(parts)
	db.crossCommits.Add(1)
	if db.xlog != nil {
		db.crossExtraTxns.Add(int64(len(parts) - 1))
	}
	// Maintenance (reclaim, threshold checkpoints) runs after every
	// latch is released: Publish itself must stay latch-short, and a
	// checkpoint inside the vector latch would stall every reader.
	for _, p := range parts {
		db.shards[p.shard].MaybeMaintain()
	}
	return pubErr
}

// prepared is one participant of a cross-shard commit — what the
// coordinator's record says of it, and its group, nil once that has been
// undone.
type prepared struct {
	xlogPart
	pg *relational.PreparedGroup
}
