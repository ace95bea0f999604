package relational

import (
	"fmt"
	"sync"
)

// undoKind discriminates undo-log entries.
type undoKind int

const (
	undoInsert undoKind = iota // compensate by popping the inserted version
	undoDelete                 // compensate by reviving the delete-stamped head
	undoUpdate                 // compensate by popping the new version off the chain
)

// undoEntry records one compensating action. Under MVCC the pre-images
// live in the row's version chain, so undo only needs to know which
// chain to pop or revive — no saved row copies. The version pointer is
// carried so commit's publish phase can replace the transaction's claim
// stamps with the real commit sequence without any map lookups or
// latches: the undo log doubles as the transaction's write-set.
type undoEntry struct {
	kind  undoKind
	table string
	id    RowID
	v     *rowVersion // created (insert/update) or delete-stamped version
}

// Txn is an explicit transaction over a Database. Any number of
// transactions may be open against one Database at a time; each claims
// the rows it writes by stamping versions with its transaction mark,
// and a write that meets another transaction's claim — or a version
// committed after this transaction's read sequence — fails immediately
// with ErrWriteConflict (first-updater-wins, so conflicts never
// deadlock and never wait).
//
// A transaction is also a Reader: its reads resolve row version chains
// at its read sequence overlaid with its own uncommitted writes, so
// probes inside the transaction observe a stable snapshot plus their
// own effects. A Txn must not be shared by concurrent goroutines
// (a synchronized hand-off between goroutines is fine).
//
// Commit is two-phase: the validation happened eagerly at every write
// (the claim checks), so commit only publishes — under the database's
// commit latch it replaces every claim stamp with the next commit
// sequence; once the commit record is durable the commit sequence
// advances, making the transaction's effects visible to snapshot
// readers atomically, or never (Rollback pops the uncommitted versions
// off their chains). Flush sharing is the WAL writer stage's job (see
// walpipeline.go): committers just call Commit.
type Txn struct {
	reader
	id      uint64 // stamps claims; txnMark(id) in begin/end fields
	readSeq uint64 // commit sequence pinned at Begin
	seq     uint64 // commit sequence assigned by CommitGroup, pre-publish
	log     []undoEntry
	done    bool
}

// Begin starts a transaction pinned at the current commit sequence.
func (db *Database) Begin() *Txn {
	t := &Txn{id: db.nextTxnID.Add(1)}
	t.reader = reader{db, t}
	db.txnMu.Lock()
	t.readSeq = db.commitSeq.Load()
	db.txns[t] = struct{}{}
	db.txnMu.Unlock()
	db.txnsActive.Add(1)
	db.txnsStarted.Add(1)
	return t
}

// forget removes the transaction from the active registry, releasing
// its pin on the reclaim horizon.
func (db *Database) forget(t *Txn) {
	db.txnMu.Lock()
	delete(db.txns, t)
	db.txnMu.Unlock()
	db.txnsActive.Add(-1)
}

// ReadSeq returns the commit sequence the transaction reads at.
func (t *Txn) ReadSeq() uint64 { return t.readSeq }

// OpCount returns the number of logged operations (touched tuples).
func (t *Txn) OpCount() int { return len(t.log) }

// Insert adds a row through the transaction. It enforces, in order:
// type coercion, NOT NULL, CHECK, primary key / UNIQUE, and foreign key
// existence. A duplicate key held by another in-flight transaction
// surfaces as ErrWriteConflict rather than a constraint violation: the
// retry resolves against the winner's outcome.
func (t *Txn) Insert(table string, values map[string]Value) (RowID, error) {
	if t.done {
		return 0, errTxnFinished()
	}
	return t.db.txnInsert(t, table, values)
}

// Delete removes the row with the given id through the transaction,
// applying referential delete policies (CASCADE/SET NULL/RESTRICT)
// transitively. Deleting a row claimed by another in-flight
// transaction, or modified by a transaction that committed after this
// one's read sequence, fails with ErrWriteConflict.
func (t *Txn) Delete(table string, id RowID) (int, error) {
	if t.done {
		return 0, errTxnFinished()
	}
	return t.db.txnDelete(t, table, id)
}

// UpdateRow modifies the named columns of a row through the
// transaction, re-checking NOT NULL, CHECK, uniqueness and foreign
// keys for the new values. Like Delete, a contended row fails with
// ErrWriteConflict.
func (t *Txn) UpdateRow(table string, id RowID, changes map[string]Value) error {
	if t.done {
		return errTxnFinished()
	}
	return t.db.txnUpdate(t, table, id, changes)
}

func errTxnFinished() error {
	return fmt.Errorf("relational: transaction already finished")
}

// Commit finishes the transaction: the undo log becomes the publish
// list, the commit record becomes durable, and the commit sequence
// advances, making every version the transaction created visible to
// subsequent snapshots atomically. Equivalent to db.CommitGroup(t).
// Concurrent committers share fsyncs without cooperating: the WAL writer
// stage flushes whatever queued behind the previous fsync as one batch.
func (t *Txn) Commit() error {
	return t.db.CommitGroup(t)
}

// CommitGroup publishes any number of transactions under one commit
// latch acquisition and one log record. Each transaction's effects
// still become visible atomically (the commit sequence advances once,
// after all stamps of the group are placed), and each transaction is
// all-or-nothing. A transaction that already finished contributes an
// error without disturbing its group siblings.
//
// With a durable WAL attached the commit latch covers only sequence
// assignment and stamping: the encoded record is handed to the WAL
// writer stage and the latch releases, so the next group validates and
// stamps while this group's fsync is in flight. Nothing becomes visible
// (let alone acknowledged) until it would survive a crash — the writer
// advances commitSeq strictly in group order, only after each group's
// record is durable. If the append or fsync fails, the entire group
// rolls back and every member receives an error wrapping ErrWALFailed.
//
// Without a WAL there is nothing to wait for: the group publishes
// inline under the latch.
func (db *Database) CommitGroup(txns ...*Txn) error {
	var firstErr error
	live := make([]*Txn, 0, len(txns))
	for _, t := range txns {
		if t == nil {
			continue
		}
		if t.done {
			// Only the owning goroutine finishes a Txn, so this check
			// needs no latch (the same reason Commit/Rollback don't).
			if firstErr == nil {
				firstErr = errTxnFinished()
			}
			continue
		}
		live = append(live, t)
	}
	if len(live) == 0 {
		return firstErr
	}
	req := &walReq{}
	req.one[0] = walPart{db: db, live: live}
	req.parts = req.one[:]
	if err := req.commit(); err != nil {
		return err
	}
	db.commitMaintenance()
	return firstErr
}

// CommitAcross commits ONE transaction made of parts on distinct
// databases — the members of one log, or databases without one — in
// ascending member order, which is the order their commit latches are
// taken in. Every part is stamped under its latch and, with a log, the
// whole transaction becomes one record enqueued while every latch is
// held, so each member's queue order stays its sequence order; the
// writer stage publishes the parts under vec once the record's fsync
// returns, or undoes every part if the append or fsync fails. In memory
// the parts publish under vec before the latches drop. Either way a
// reader that pins its per-member views under vec's read side sees the
// transaction on all its members or on none.
func CommitAcross(vec sync.Locker, parts []*Txn) error {
	for _, t := range parts {
		if t.done {
			return errTxnFinished()
		}
	}
	req := &walReq{parts: make([]walPart, len(parts)), vec: vec}
	for i, t := range parts {
		req.parts[i] = walPart{db: t.db, live: parts[i : i+1]}
	}
	if err := req.commit(); err != nil {
		return err
	}
	for _, t := range parts {
		t.db.commitMaintenance()
	}
	return nil
}

// commit stamps every part under its member's commit latch, taken in
// part order, and then — still under every latch — publishes the parts
// inline (no log) or hands the record to the writer stage, releases the
// latches and waits for its outcome. Row images are encoded before the
// latches, only the sequences spliced in by the writer. On error the
// record has been undone and the error wraps ErrWALFailed.
func (req *walReq) commit() error {
	w := req.parts[0].db.wal
	if w != nil {
		for i := range req.parts {
			p := &req.parts[i]
			p.bodies = make([][]byte, len(p.live))
			for j, t := range p.live {
				p.bodies[j] = appendTxnOpsBody(nil, t)
			}
		}
	}
	for i := range req.parts {
		p := &req.parts[i]
		p.db.commitMu.Lock()
		p.seq = p.db.stampLocked(p.live)
	}
	unlock := func() {
		for i := range req.parts {
			req.parts[i].db.commitMu.Unlock()
		}
	}
	if w == nil {
		// All stamps were placed BEFORE these sequence advances, which is
		// what makes each transaction atomic to snapshot readers: a
		// snapshot pinned before a store sees none of the part's versions
		// (their begins exceed its sequence), one pinned after sees every
		// committed transaction whole.
		req.publish()
		for i := range req.parts {
			p := &req.parts[i]
			p.db.groupCommits.Add(1)
			p.db.groupedTxns.Add(int64(len(p.live)))
		}
		unlock()
		req.finish()
		return nil
	}
	var err error
	if w.faults != nil {
		err = w.faults.Point("pipeline.stamp.after")
	}
	if err == nil && w.closed {
		err = ErrWALClosed
	}
	if err != nil {
		// The stamps never published, so the undo is invisible to every
		// reader; the consumed sequences are simply never reissued.
		req.undo()
		unlock()
		return fmt.Errorf("%w: %v", ErrWALFailed, err)
	}
	req.done = make(chan error, 1)
	w.pipeDepth.Add(1)
	w.pipe <- req
	unlock()
	return <-req.done
}

// stampLocked assigns the group's commit sequences, replaces every
// claim stamp and marks the written rows dirty, returning the last
// sequence. The stamps stay invisible until commitSeq advances past
// them. Caller holds commitMu.
func (db *Database) stampLocked(live []*Txn) uint64 {
	seq := db.stampSeq.Load()
	for _, t := range live {
		t.done = true
		seq++
		t.seq = seq
		t.publish(seq)
	}
	db.stampSeq.Store(seq)
	db.markDirtyGroupLocked(live)
	return seq
}

// finish releases every published part's transactions.
func (req *walReq) finish() {
	for i := range req.parts {
		p := &req.parts[i]
		for _, t := range p.live {
			t.log = nil
			p.db.forget(t)
		}
	}
}

// undo pops every part's stamped-but-unpublished versions under its
// member's db.mu (taken inside commitMu is safe: no path takes them in
// the opposite order) and releases the transactions.
func (req *walReq) undo() {
	for i := range req.parts {
		p := &req.parts[i]
		p.db.mu.Lock()
		for _, t := range p.live {
			_ = t.undoFromLocked(0)
		}
		p.db.mu.Unlock()
	}
	req.finish()
}

// commitMaintenance runs the work commits piggyback after publishing,
// outside every latch: version reclamation past the threshold.
func (db *Database) commitMaintenance() {
	if db.versionsSinceReclaim.Load() >= reclaimThreshold {
		db.Reclaim()
	}
}

// publish replaces every claim stamp the transaction placed with the
// assigned commit sequence. It touches only atomics on versions the
// transaction owns (no latches): concurrent readers observe either the
// claim (invisible / still-visible-predecessor) or the final sequence,
// both correct at their pinned sequence. Callers hold commitMu.
func (t *Txn) publish(seq uint64) {
	mark := txnMark(t.id)
	for i := range t.log {
		en := &t.log[i]
		switch en.kind {
		case undoInsert:
			en.v.begin.CompareAndSwap(mark, seq)
		case undoUpdate:
			en.v.begin.CompareAndSwap(mark, seq)
			if p := en.v.prev.Load(); p != nil {
				p.end.CompareAndSwap(mark, seq)
			}
		case undoDelete:
			en.v.end.CompareAndSwap(mark, seq)
		}
	}
}

// Savepoint marks the current position in the undo log. RollbackTo
// with the returned mark undoes everything logged after it, which is
// how a batch apply rejects one update without aborting its siblings.
func (t *Txn) Savepoint() int { return len(t.log) }

// RollbackTo replays the undo log in reverse down to the given
// savepoint, keeping the transaction open.
func (t *Txn) RollbackTo(mark int) error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	if t.done {
		return errTxnFinished()
	}
	if mark < 0 || mark > len(t.log) {
		return fmt.Errorf("relational: savepoint %d out of range (log has %d entries)", mark, len(t.log))
	}
	if err := t.undoFromLocked(mark); err != nil {
		return err
	}
	t.log = t.log[:mark]
	return nil
}

// Rollback replays the undo log in reverse, releasing every row claim
// and restoring the database to its state at Begin. The popped
// versions were never visible to any other reader (their stamps never
// committed), so neither readers nor competing writers can observe the
// rollback in progress — a competitor that lost a claim race to this
// transaction simply succeeds on retry.
func (t *Txn) Rollback() error {
	t.db.mu.Lock()
	if t.done {
		t.db.mu.Unlock()
		return errTxnFinished()
	}
	t.done = true
	err := t.undoFromLocked(0)
	t.log = nil
	t.db.mu.Unlock()
	t.db.forget(t)
	return err
}

// undoFromLocked compensates log entries [from, len) in reverse order.
// Every touched version carries this transaction's claim stamp, so the
// compensation cannot collide with other transactions' work. Callers
// hold the database latch.
func (t *Txn) undoFromLocked(from int) error {
	for i := len(t.log) - 1; i >= from; i-- {
		e := t.log[i]
		td, err := t.db.tableData(e.table)
		if err != nil {
			return err
		}
		switch e.kind {
		case undoInsert:
			// Pop the inserted version. It was uncommitted, hence
			// invisible to every other reader, so its index entries go
			// too. An insert's version never has a predecessor (row ids
			// are never reused, and an in-txn update of the row is undone
			// by its own later-logged entry before this one replays).
			if v, ok := td.rows[e.id]; ok && v == e.v {
				removeVersionEntries(td, e.id, v, nil)
				delete(td.rows, e.id)
				td.dirty = true
				td.live--
			}
		case undoDelete:
			// Revive the delete-stamped version: the claim never
			// committed.
			e.v.end.Store(liveSeq)
			td.live++
		case undoUpdate:
			// Pop the uncommitted new version and revive its predecessor.
			p := e.v.prev.Load()
			if p == nil {
				return fmt.Errorf("relational: undo update of %s rowid %d: no prior version", e.table, e.id)
			}
			removeVersionEntries(td, e.id, e.v, p)
			p.end.Store(liveSeq)
			td.rows[e.id] = p
		}
	}
	return nil
}

// resolve walks a version chain and returns the version this
// transaction sees: its own uncommitted writes first, then the version
// visible at its read sequence. Chains are newest-first.
func (t *Txn) resolve(v *rowVersion) *rowVersion {
	for ; v != nil; v = v.prev.Load() {
		b := v.begin.Load()
		if isTxnMark(b) {
			if markOwner(b) != t.id {
				continue // another transaction's uncommitted version
			}
			if e := v.end.Load(); isTxnMark(e) {
				return nil // we deleted our own version
			}
			return v
		}
		if b > t.readSeq {
			continue // committed after our snapshot; older may be visible
		}
		e := v.end.Load()
		if isTxnMark(e) {
			if markOwner(e) == t.id {
				return nil // we delete-stamped the committed version
			}
			return v // another txn's uncommitted claim: still visible to us
		}
		if e > t.readSeq { // includes liveSeq
			return v
		}
		return nil
	}
	return nil
}

// The Reader implementation: a transaction's reads see its own writes
// overlaid on the snapshot pinned at Begin.
var _ Reader = (*Txn)(nil)
