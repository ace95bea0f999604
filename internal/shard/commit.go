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
// the shard's commit latch on the single-shard path. Either way the
// commit lands in the group's one log, whose writer stage flushes every
// record that queued behind the previous fsync together, whichever
// shards they commit on.
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
	err := t.subs[dirty].Commit()
	t.finishExcept([]int{dirty})
	return err
}

// commitCross publishes one transaction across its dirty shards as ONE
// record of the group's log (relational.CommitAcross): each dirty
// shard's commit latch is taken in ascending order — deadlock-free
// against other cross-shard commits, checkpoints and the single-shard
// path, which only ever holds one — and stamped; the record carrying
// every shard's redo is enqueued while every latch is held, so each
// shard's log order stays its sequence order; once its fsync returns the
// writer stage publishes every part under the write side of the vector
// latch, the shortest window that keeps readers from pinning a vector
// between two shards' publishes. A failed append or fsync undoes every
// part, and a crash keeps the record whole or not at all. In memory the
// parts publish under the vector latch before the commit latches drop.
func (db *DB) commitCross(t *Txn) error {
	// The participants, ascending; a stack array for any realistic width.
	var shards [8]int
	var parts [8]*relational.Txn
	ids, subs := shards[:0], parts[:0]
	for s, sub := range t.subs {
		if sub != nil && sub.OpCount() > 0 {
			ids, subs = append(ids, s), append(subs, sub)
		}
	}
	err := relational.CommitAcross(&db.xmu, subs)
	t.finishExcept(ids)
	if err != nil {
		return err
	}
	db.crossCommits.Add(1)
	return nil
}
