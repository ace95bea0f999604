package relational

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWriteWriteConflictFirstUpdaterWins: two open transactions write
// the same row; the second write fails immediately with
// ErrWriteConflict while the first commits untouched.
func TestWriteWriteConflictFirstUpdaterWins(t *testing.T) {
	db, ids := newAcctDB(t, 2)

	t1 := db.Begin()
	t2 := db.Begin()
	if err := t1.UpdateRow("acct", ids[0], map[string]Value{"val": Int_(1)}); err != nil {
		t.Fatal(err)
	}
	// t2 loses the claim race on ids[0] but writes ids[1] freely.
	if err := t2.UpdateRow("acct", ids[0], map[string]Value{"val": Int_(2)}); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("second updater err = %v, want ErrWriteConflict", err)
	}
	if err := t2.UpdateRow("acct", ids[1], map[string]Value{"val": Int_(2)}); err != nil {
		t.Fatalf("disjoint row write conflicted: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	v0, v1 := colValue(t, db, "acct", ids[0], "val"), colValue(t, db, "acct", ids[1], "val")
	if v0.Int != 1 || v1.Int != 2 {
		t.Fatalf("vals = %v/%v, want 1/2", v0, v1)
	}
	if got := db.Stats().Conflicts; got < 1 {
		t.Fatalf("Stats().Conflicts = %d, want >= 1", got)
	}
}

// TestConflictAgainstCommittedNewerVersion: a transaction that began
// before another committed a write to the row must also lose
// (first-updater-wins is against commits after the read sequence, not
// just in-flight claims).
func TestConflictAgainstCommittedNewerVersion(t *testing.T) {
	db, ids := newAcctDB(t, 1)

	stale := db.Begin()
	write(t, db, func(tx *Txn) error {
		return tx.UpdateRow("acct", ids[0], map[string]Value{"val": Int_(5)})
	})
	if err := stale.UpdateRow("acct", ids[0], map[string]Value{"val": Int_(6)}); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale writer err = %v, want ErrWriteConflict", err)
	}
	if _, err := stale.Delete("acct", ids[0]); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale delete err = %v, want ErrWriteConflict", err)
	}
	stale.Rollback()

	// A fresh transaction (read sequence past the commit) succeeds.
	fresh := db.Begin()
	if err := fresh.UpdateRow("acct", ids[0], map[string]Value{"val": Int_(7)}); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRollbackReleasesClaim: the loser of a claim race succeeds after
// the winner rolls back.
func TestRollbackReleasesClaim(t *testing.T) {
	db, ids := newAcctDB(t, 1)

	winner := db.Begin()
	if err := winner.UpdateRow("acct", ids[0], map[string]Value{"val": Int_(1)}); err != nil {
		t.Fatal(err)
	}
	loser := db.Begin()
	if err := loser.UpdateRow("acct", ids[0], map[string]Value{"val": Int_(2)}); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("err = %v, want ErrWriteConflict", err)
	}
	if err := winner.Rollback(); err != nil {
		t.Fatal(err)
	}
	// The loser's snapshot predates nothing committed: its retry (same
	// transaction — the claim is gone and no newer commit exists) works.
	if err := loser.UpdateRow("acct", ids[0], map[string]Value{"val": Int_(2)}); err != nil {
		t.Fatalf("retry after winner rollback: %v", err)
	}
	if err := loser.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := colValue(t, db, "acct", ids[0], "val"); v.Int != 2 {
		t.Fatalf("val = %v, want 2", v)
	}
}

// TestInsertDuplicateKeyAcrossTxns: a duplicate key held by another
// in-flight transaction is a conflict (retry resolves it); one held by
// committed state is a constraint violation.
func TestInsertDuplicateKeyAcrossTxns(t *testing.T) {
	db, _ := newAcctDB(t, 1)

	t1 := db.Begin()
	if _, err := t1.Insert("acct", map[string]Value{"id": Int_(50), "val": Int_(1)}); err != nil {
		t.Fatal(err)
	}
	t2 := db.Begin()
	if _, err := t2.Insert("acct", map[string]Value{"id": Int_(50), "val": Int_(2)}); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("concurrent duplicate insert err = %v, want ErrWriteConflict", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2.Rollback()
	// After the winner committed, the duplicate is a plain constraint
	// violation.
	t3 := db.Begin()
	if _, err := t3.Insert("acct", map[string]Value{"id": Int_(50), "val": Int_(3)}); !errors.Is(err, ErrPrimaryKey) {
		t.Fatalf("post-commit duplicate err = %v, want ErrPrimaryKey", err)
	}
	t3.Rollback()
	// Committed-state duplicate against the pre-existing row too.
	t4 := db.Begin()
	if _, err := t4.Insert("acct", map[string]Value{"id": Int_(0), "val": Int_(9)}); !errors.Is(err, ErrPrimaryKey) {
		t.Fatalf("pre-existing duplicate err = %v, want ErrPrimaryKey", err)
	}
	t4.Rollback()
}

// TestConcurrentDisjointTxnsCommitInParallel runs many goroutines,
// each transferring within its own private pair of rows — no two
// transactions share a row, so none may conflict, and every commit
// must land. Run with -race.
func TestConcurrentDisjointTxnsCommitInParallel(t *testing.T) {
	const writers = 8
	const txnsPerWriter = 200
	db, ids := newAcctDB(t, writers*2)

	var wg sync.WaitGroup
	var firstErr atomic.Value
	for w := 0; w < writers; w++ {
		a, b := ids[2*w], ids[2*w+1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txnsPerWriter; i++ {
				txn := db.Begin()
				av, err := txn.Get("acct", a)
				if err == nil {
					err = txn.UpdateRow("acct", a, map[string]Value{"val": Int_(av.Values[1].Int - 1)})
				}
				var bv *Row
				if err == nil {
					bv, err = txn.Get("acct", b)
				}
				if err == nil {
					err = txn.UpdateRow("acct", b, map[string]Value{"val": Int_(bv.Values[1].Int + 1)})
				}
				if err == nil {
					err = txn.Commit()
				} else {
					txn.Rollback()
				}
				if err != nil {
					firstErr.Store(fmt.Errorf("writer %d txn %d: %w", 2*w, i, err))
					return
				}
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Conflicts; got != 0 {
		t.Fatalf("disjoint writers conflicted %d times", got)
	}
	var sum int64
	db.Scan("acct", func(r *Row) bool { sum += r.Values[1].Int; return true })
	if sum != int64(writers*2*10) {
		t.Fatalf("sum = %d, want %d", sum, writers*2*10)
	}
}

// TestConcurrentContendedTxnsPreserveInvariant hammers one shared pair
// of rows from many goroutines with retry-on-conflict loops; the
// committed sum must be invariant at every snapshot and at quiesce,
// and conflicts must actually have occurred. Every round starts behind
// a barrier with all transactions already open, so the overlap that
// produces conflicts is guaranteed even on GOMAXPROCS=1, where free
// scheduling would serialize the tiny transactions. Run with -race.
func TestConcurrentContendedTxnsPreserveInvariant(t *testing.T) {
	const writers = 8
	const rounds = 50
	db, ids := newAcctDB(t, 2)
	a, b := ids[0], ids[1]

	var wg sync.WaitGroup
	var firstErr atomic.Value
	// barrier releases all writers at once with their transactions open.
	barrier := make(chan struct{}, writers)
	var ready sync.WaitGroup
	ready.Add(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				txn := db.Begin()
				ready.Done()
				<-barrier
				av, err := txn.Get("acct", a)
				if err == nil {
					err = txn.UpdateRow("acct", a, map[string]Value{"val": Int_(av.Values[1].Int - 1)})
				}
				var bv *Row
				if err == nil {
					bv, err = txn.Get("acct", b)
				}
				if err == nil {
					err = txn.UpdateRow("acct", b, map[string]Value{"val": Int_(bv.Values[1].Int + 1)})
				}
				if err == nil {
					if err = txn.Commit(); err != nil {
						firstErr.Store(err)
						return
					}
					continue
				}
				txn.Rollback()
				if !errors.Is(err, ErrWriteConflict) {
					firstErr.Store(err)
					return
				}
			}
		}()
	}
	go func() {
		for round := 0; round < rounds; round++ {
			ready.Wait() // every writer has its transaction open
			if round < rounds-1 {
				ready.Add(writers) // arm the next round before releasing
			}
			for i := 0; i < writers; i++ {
				barrier <- struct{}{}
			}
		}
	}()

	// A reader verifies the invariant while the fight is on.
	stop := make(chan struct{})
	var readErr atomic.Value
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := db.Snapshot()
			var sum int64
			snap.Scan("acct", func(r *Row) bool { sum += r.Values[1].Int; return true })
			snap.Close()
			if sum != 20 {
				readErr.Store(fmt.Errorf("snapshot sum = %d, want 20", sum))
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	if err, _ := firstErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if err, _ := readErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Conflicts == 0 {
		t.Fatal("contended workload produced zero conflicts")
	}
	if st.TxnsActive != 0 {
		t.Fatalf("TxnsActive = %d after quiesce, want 0", st.TxnsActive)
	}
	var sum int64
	db.Scan("acct", func(r *Row) bool { sum += r.Values[1].Int; return true })
	if sum != 20 {
		t.Fatalf("final sum = %d, want 20", sum)
	}
}

// TestGroupCommitSharedFlush: commits queued behind the WAL writer
// stage share one fsync and count as one group; each publishes
// atomically — a snapshot pinned while they wait sees none of them, and
// every snapshot pinned while they publish sees each transaction whole
// or not at all — and a double commit fails.
func TestGroupCommitSharedFlush(t *testing.T) {
	db, _ := openWALDB(t, t.TempDir(), WALOptions{})
	parents := func(rd Reader) (n int) {
		rd.Scan("parent", func(*Row) bool { n++; return true })
		return n
	}
	txns := make([]*Txn, 3)
	for i := range txns {
		txns[i] = parentTxn(t, db, int64(2*i), fmt.Sprint("first ", i))
		if _, err := txns[i].Insert("parent", map[string]Value{"id": Int_(int64(2*i + 1)), "name": String_(fmt.Sprint("second ", i))}); err != nil {
			t.Fatal(err)
		}
	}
	var torn atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			snap := db.Snapshot()
			if parents(snap)%2 != 0 {
				torn.Add(1)
			}
			snap.Close()
		}
	}()
	before := db.Stats()
	errs := commitQueued(t, db.wal, func() {
		mid := db.Snapshot()
		defer mid.Close()
		if n := parents(mid); n != 0 {
			t.Errorf("a snapshot pinned while the commits wait sees %d rows, want 0", n)
		}
	}, txns...)
	close(done)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("queued commit: %v", err)
		}
	}
	st := db.Stats()
	if groups, n := st.GroupCommits-before.GroupCommits, st.GroupedTxns-before.GroupedTxns; groups != 1 || n != 3 {
		t.Fatalf("3 queued commits counted as %d commit groups / %d txns, want 1 / 3", groups, n)
	}
	if got := st.Fsyncs - before.Fsyncs; got != 1 {
		t.Fatalf("3 queued commits took %d fsyncs, want 1", got)
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d snapshots saw a transaction half published", n)
	}
	post := db.Snapshot()
	defer post.Close()
	if n := parents(post); n != 6 {
		t.Fatalf("post-commit snapshot sees %d rows, want 6", n)
	}
	// Double commit of a published transaction errors without side effects.
	if err := txns[0].Commit(); err == nil {
		t.Fatal("double commit should fail")
	}
}

// foreignTxn is a WriteTxn no Database began.
type foreignTxn struct{ WriteTxn }

// TestCommitSharedRefusesForeignMembers: CommitShared commits each
// member through its own Commit, skips a nil slot, and refuses with an
// error — without touching it — a WriteTxn of another type and a
// transaction begun on another database, while its neighbours commit.
func TestCommitSharedRefusesForeignMembers(t *testing.T) {
	db, other := NewDatabase(walSchema(t)), NewDatabase(walSchema(t))
	mine := parentTxn(t, db, 1, "mine")
	theirs := parentTxn(t, other, 2, "theirs")
	finished := parentTxn(t, db, 3, "finished")
	if err := finished.Commit(); err != nil {
		t.Fatal(err)
	}
	errs := db.CommitShared([]WriteTxn{mine, foreignTxn{}, nil, theirs, finished})
	for i, want := range []bool{false, true, false, true, true} {
		if got := errs[i] != nil; got != want {
			t.Errorf("member %d: error %v, want an error: %v", i, errs[i], want)
		}
	}
	if n, seq := db.RowCount("parent"), db.Stats().CommitSeq; n != 2 || seq != 2 {
		t.Errorf("database holds %d rows at commit_seq %d, want 2 and 2", n, seq)
	}
	if st := other.Stats(); st.TxnsActive != 1 || st.CommitSeq != 0 {
		t.Fatalf("the other database's transaction was touched: %d open, commit_seq %d", st.TxnsActive, st.CommitSeq)
	}
	if err := theirs.Commit(); err != nil || other.RowCount("parent") != 1 {
		t.Fatalf("the refused transaction commits on its own database: %v, %d rows", err, other.RowCount("parent"))
	}
}
