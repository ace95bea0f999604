package relational

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// acctSchema is a minimal two-column table for MVCC-focused tests:
// acct(id INT PK, val INT).
func acctSchema(t testing.TB) *Schema {
	t.Helper()
	acct, err := NewTableDef("acct", []Column{
		{Name: "id", Type: TypeInt},
		{Name: "val", Type: TypeInt},
	}, []string{"id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchema(acct)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newAcctDB(t testing.TB, rows int) (*Database, []RowID) {
	t.Helper()
	db := NewDatabase(acctSchema(t))
	ids := make([]RowID, rows)
	for i := 0; i < rows; i++ {
		write(t, db, func(tx *Txn) (err error) {
			ids[i], err = tx.Insert("acct", map[string]Value{"id": Int_(int64(i)), "val": Int_(10)})
			return err
		})
	}
	return db, ids
}

func sumVals(t testing.TB, rd Reader) int64 {
	t.Helper()
	var sum int64
	if err := rd.Scan("acct", func(r *Row) bool {
		sum += r.Values[1].Int
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestSnapshotSeesPointInTimeState(t *testing.T) {
	db, ids := newAcctDB(t, 3)
	snap := db.Snapshot()
	defer snap.Close()

	// Mutate after pinning: update, delete, insert.
	write(t, db, func(tx *Txn) error {
		return tx.UpdateRow("acct", ids[0], map[string]Value{"val": Int_(99)})
	})
	write(t, db, func(tx *Txn) error {
		_, err := tx.Delete("acct", ids[1])
		return err
	})
	write(t, db, func(tx *Txn) error {
		_, err := tx.Insert("acct", map[string]Value{"id": Int_(7), "val": Int_(70)})
		return err
	})

	// The live view reflects everything.
	if got := db.RowCount("acct"); got != 3 {
		t.Fatalf("live RowCount = %d, want 3", got)
	}
	if got := sumVals(t, db); got != 99+10+70 {
		t.Fatalf("live sum = %d, want %d", got, 99+10+70)
	}

	// The snapshot still sees the pre-mutation state, through every
	// read path.
	if got := snap.RowCount("acct"); got != 3 {
		t.Fatalf("snapshot RowCount = %d, want 3", got)
	}
	if got := sumVals(t, snap); got != 30 {
		t.Fatalf("snapshot sum = %d, want 30", got)
	}
	r, err := snap.Get("acct", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Values[1].Int != 10 {
		t.Fatalf("snapshot Get saw updated value %d, want 10", r.Values[1].Int)
	}
	if _, err := snap.Get("acct", ids[1]); err != nil {
		t.Fatalf("snapshot Get of deleted row: %v, want pre-delete row", err)
	}
	// Index lookup resolves at the snapshot: the old value of ids[0] is
	// found, the new one is not, and the deleted row is still found.
	got, err := snap.LookupEqual("acct", []string{"id"}, []Value{Int_(0)})
	if err != nil || len(got) != 1 || got[0] != ids[0] {
		t.Fatalf("snapshot LookupEqual(id=0) = %v, %v", got, err)
	}
	got, err = snap.LookupEqual("acct", []string{"id"}, []Value{Int_(7)})
	if err != nil || len(got) != 0 {
		t.Fatalf("snapshot LookupEqual(id=7) = %v, %v; want empty (inserted after pin)", got, err)
	}
	if got := snap.ScanIDs("acct"); len(got) != 3 {
		t.Fatalf("snapshot ScanIDs = %v, want 3 ids", got)
	}
}

func TestSnapshotTransactionAtomicity(t *testing.T) {
	db, ids := newAcctDB(t, 2)

	pre := db.Snapshot()
	defer pre.Close()

	txn := db.Begin()
	if err := txn.UpdateRow("acct", ids[0], map[string]Value{"val": Int_(0)}); err != nil {
		t.Fatal(err)
	}
	// A snapshot pinned mid-transaction must not see the uncommitted
	// half of the transfer.
	mid := db.Snapshot()
	defer mid.Close()
	if got := sumVals(t, mid); got != 20 {
		t.Fatalf("mid-txn snapshot sum = %d, want 20 (uncommitted writes visible)", got)
	}
	// The transaction's own reads see its uncommitted half, overlaid on
	// the snapshot it pinned at Begin.
	if got := sumVals(t, txn); got != 10 {
		t.Fatalf("txn's own sum = %d, want 10 (own writes invisible to the writer)", got)
	}
	if err := txn.UpdateRow("acct", ids[1], map[string]Value{"val": Int_(20)}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	// Pre- and mid-pinned snapshots keep the old state forever; a fresh
	// snapshot sees the whole transaction.
	if got := sumVals(t, pre); got != 20 {
		t.Fatalf("pre snapshot sum = %d, want 20", got)
	}
	if got := sumVals(t, mid); got != 20 {
		t.Fatalf("mid snapshot sum = %d, want 20", got)
	}
	post := db.Snapshot()
	defer post.Close()
	if got := sumVals(t, post); got != 20 {
		t.Fatalf("post snapshot sum = %d, want 20", got)
	}
	r, err := post.Get("acct", ids[0])
	if err != nil || r.Values[1].Int != 0 {
		t.Fatalf("post snapshot Get = %v, %v; want val 0", r, err)
	}
}

func TestRollbackRestoresVersionsAndIndexes(t *testing.T) {
	db, ids := newAcctDB(t, 2)

	txn := db.Begin()
	if err := txn.UpdateRow("acct", ids[0], map[string]Value{"id": Int_(100)}); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Delete("acct", ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Insert("acct", map[string]Value{"id": Int_(5), "val": Int_(50)}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}

	if got := db.RowCount("acct"); got != 2 {
		t.Fatalf("RowCount after rollback = %d, want 2", got)
	}
	// The PK index must serve the restored key and reject the rolled-
	// back one.
	got, err := db.LookupEqual("acct", []string{"id"}, []Value{Int_(0)})
	if err != nil || len(got) != 1 {
		t.Fatalf("LookupEqual(id=0) after rollback = %v, %v", got, err)
	}
	got, err = db.LookupEqual("acct", []string{"id"}, []Value{Int_(100)})
	if err != nil || len(got) != 0 {
		t.Fatalf("LookupEqual(id=100) after rollback = %v, %v; want empty", got, err)
	}
	// Re-inserting the rolled-back insert's key must not collide.
	tx := db.Begin()
	defer tx.Rollback()
	if _, err := tx.Insert("acct", map[string]Value{"id": Int_(5), "val": Int_(1)}); err != nil {
		t.Fatalf("insert of rolled-back key: %v", err)
	}
	// And the restored PK still enforces uniqueness.
	if _, err := tx.Insert("acct", map[string]Value{"id": Int_(0), "val": Int_(1)}); !errors.Is(err, ErrPrimaryKey) {
		t.Fatalf("duplicate PK after rollback: err = %v, want ErrPrimaryKey", err)
	}
}

func TestUniquenessIgnoresDeadVersions(t *testing.T) {
	db, ids := newAcctDB(t, 1)
	write(t, db, func(tx *Txn) error {
		_, err := tx.Delete("acct", ids[0])
		return err
	})
	// The dead version (id=0) still sits in the PK index awaiting
	// reclaim; a fresh insert of the same key must succeed.
	write(t, db, func(tx *Txn) error {
		_, err := tx.Insert("acct", map[string]Value{"id": Int_(0), "val": Int_(1)})
		return err
	})
	tx := db.Begin()
	defer tx.Rollback()
	if _, err := tx.Insert("acct", map[string]Value{"id": Int_(0), "val": Int_(2)}); !errors.Is(err, ErrPrimaryKey) {
		t.Fatalf("duplicate PK: err = %v, want ErrPrimaryKey", err)
	}
}

// versionStats reads the version store's shape at the latest commit
// without pinning a snapshot of its own.
func versionStats(db *Database) VersionStats { return db.versionStatsAt(db.commitSeq.Load()) }

func TestReclaimHonorsOldestSnapshot(t *testing.T) {
	db, ids := newAcctDB(t, 1)
	snap := db.Snapshot()

	for i := 0; i < 10; i++ {
		write(t, db, func(tx *Txn) error {
			return tx.UpdateRow("acct", ids[0], map[string]Value{"val": Int_(int64(i))})
		})
	}
	vs := versionStats(db)
	if vs.MaxChainDepth != 11 {
		t.Fatalf("chain depth = %d, want 11", vs.MaxChainDepth)
	}

	// With the snapshot pinned at the oldest state, the horizon-based
	// reclaimer must keep every version whose end stamp lies above the
	// snapshot's sequence — here, all of them.
	if freed := db.Reclaim(); freed != 0 {
		t.Fatalf("reclaim freed %d versions past a pinned snapshot", freed)
	}
	if got := versionStats(db).MaxChainDepth; got != 11 {
		t.Fatalf("chain depth with pinned snapshot = %d, want 11", got)
	}
	r, err := snap.Get("acct", ids[0])
	if err != nil || r.Values[1].Int != 10 {
		t.Fatalf("snapshot read after reclaim = %v, %v; want original val 10", r, err)
	}

	// Closing the snapshot releases the pin entirely.
	snap.Close()
	freed := db.Reclaim()
	if freed == 0 {
		t.Fatal("reclaim after snapshot close freed nothing")
	}
	if got := versionStats(db).MaxChainDepth; got != 1 {
		t.Fatalf("chain depth after close+reclaim = %d, want 1", got)
	}

	// A fully deleted row disappears from the store once unpinned.
	write(t, db, func(tx *Txn) error {
		_, err := tx.Delete("acct", ids[0])
		return err
	})
	db.Reclaim()
	vs = versionStats(db)
	if vs.Versions != 0 || vs.LiveRows != 0 {
		t.Fatalf("after delete+reclaim: %+v, want empty store", vs)
	}
	if got, _ := db.LookupEqual("acct", []string{"id"}, []Value{Int_(0)}); len(got) != 0 {
		t.Fatalf("index still serves reclaimed row: %v", got)
	}
}

// TestFailedCascadeIsStatementAtomic: a Delete whose referential
// actions partially ran before failing (SET NULL applied on one child,
// then rejected by another child's NOT NULL) must leave no trace once
// its transaction rolls back: latest reads and fresh snapshots agree on
// the pre-statement state.
func TestFailedCascadeIsStatementAtomic(t *testing.T) {
	parent, err := NewTableDef("parent", []Column{
		{Name: "id", Type: TypeInt},
	}, []string{"id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	childA, err := NewTableDef("childa", []Column{
		{Name: "id", Type: TypeInt},
		{Name: "pid", Type: TypeInt},
	}, []string{"id"}, []ForeignKey{{
		Name: "ca_fk", Columns: []string{"pid"},
		RefTable: "parent", RefColumns: []string{"id"}, OnDelete: DeleteSetNull,
	}})
	if err != nil {
		t.Fatal(err)
	}
	childB, err := NewTableDef("childb", []Column{
		{Name: "id", Type: TypeInt},
		{Name: "pid", Type: TypeInt, NotNull: true},
	}, []string{"id"}, []ForeignKey{{
		Name: "cb_fk", Columns: []string{"pid"},
		RefTable: "parent", RefColumns: []string{"id"}, OnDelete: DeleteSetNull,
	}})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := NewSchema(parent, childA, childB)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(schema)
	var caID RowID
	write(t, db, func(tx *Txn) (err error) {
		if _, err = tx.Insert("parent", map[string]Value{"id": Int_(1)}); err != nil {
			return err
		}
		if caID, err = tx.Insert("childa", map[string]Value{"id": Int_(10), "pid": Int_(1)}); err != nil {
			return err
		}
		_, err = tx.Insert("childb", map[string]Value{"id": Int_(20), "pid": Int_(1)})
		return err
	})
	pid, err := db.LookupEqual("parent", []string{"id"}, []Value{Int_(1)})
	if err != nil || len(pid) != 1 {
		t.Fatalf("lookup parent: %v %v", pid, err)
	}
	// childa's FK nulls first (SET NULL succeeds), childb's NOT NULL
	// then rejects the statement mid-cascade. (Referential actions
	// resolve in schema order, childa before childb.)
	tx := db.Begin()
	if _, err := tx.Delete("parent", pid[0]); !errors.Is(err, ErrNotNull) {
		t.Fatalf("delete err = %v, want ErrNotNull", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	live := colValue(t, db, "childa", caID, "pid")
	if live.IsNull() {
		t.Fatal("partial SET NULL survived a rejected delete statement")
	}
	snap := db.Snapshot()
	defer snap.Close()
	if pinned := colValue(t, snap, "childa", caID, "pid"); live.IsNull() != pinned.IsNull() {
		t.Fatalf("latest sees pid=%v but a fresh snapshot sees pid=%v — partial cascade left uncommitted live-visible versions",
			live, pinned)
	}
	if got := db.RowCount("parent"); got != 1 {
		t.Fatalf("parent rows after rejected delete = %d, want 1", got)
	}
}

// TestReclaimerVsReaderStress races a transactional writer, snapshot
// readers verifying an invariant (the sum over acct.val is constant in
// every committed state) and an aggressive reclaimer. Run with -race.
func TestReclaimerVsReaderStress(t *testing.T) {
	const rows = 16
	db, ids := newAcctDB(t, rows)
	const wantSum = int64(rows * 10)

	stopReclaim := db.StartReclaimer(time.Millisecond)
	defer stopReclaim()

	done := make(chan struct{})
	var writerErr atomic.Value
	var wg sync.WaitGroup

	// Writer: transfer 1 between two rows per transaction, occasionally
	// rolling back; the committed sum never changes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			from, to := ids[i%rows], ids[(i+3)%rows]
			if from == to {
				continue
			}
			txn := db.Begin()
			fv, err := txn.Get("acct", from)
			if err == nil {
				err = txn.UpdateRow("acct", from, map[string]Value{"val": Int_(fv.Values[1].Int - 1)})
			}
			var tv *Row
			if err == nil {
				tv, err = txn.Get("acct", to)
			}
			if err == nil {
				err = txn.UpdateRow("acct", to, map[string]Value{"val": Int_(tv.Values[1].Int + 1)})
			}
			if err != nil {
				txn.Rollback()
				writerErr.Store(err)
				return
			}
			if i%7 == 0 {
				err = txn.Rollback()
			} else {
				err = txn.Commit()
			}
			if err != nil {
				writerErr.Store(err)
				return
			}
		}
	}()

	// A bare-Database reader (no snapshot pin, no txn): Scan resolves
	// visibility under the read latch at one commit sequence, so even
	// an unregistered reader must see a consistent committed state and
	// can never lose a row to a concurrent reclaim truncating chains.
	bareErrs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var sum int64
			n := 0
			db.Scan("acct", func(r *Row) bool {
				sum += r.Values[1].Int
				n++
				return true
			})
			if sum != wantSum || n != rows {
				bareErrs <- fmt.Errorf("bare Scan saw sum=%d rows=%d, want sum=%d rows=%d", sum, n, wantSum, rows)
				return
			}
		}
	}()

	// Readers: pin a snapshot, verify the invariant through scans and
	// index lookups, release, repeat.
	readErrs := make(chan error, 4)
	for r := 0; r < 4; r++ {
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
				var sum int64
				n := 0
				snap.Scan("acct", func(r *Row) bool {
					sum += r.Values[1].Int
					n++
					return true
				})
				if sum != wantSum || n != rows {
					readErrs <- fmt.Errorf("snapshot saw sum=%d rows=%d, want sum=%d rows=%d", sum, n, wantSum, rows)
					snap.Close()
					return
				}
				// Index path: every id must resolve to exactly one row.
				if got, err := snap.LookupEqual("acct", []string{"id"}, []Value{Int_(1)}); err != nil || len(got) != 1 {
					readErrs <- fmt.Errorf("snapshot lookup = %v, %v", got, err)
					snap.Close()
					return
				}
				snap.Close()
			}
		}()
	}

	time.Sleep(200 * time.Millisecond)
	close(done)
	wg.Wait()
	if err, _ := writerErr.Load().(error); err != nil {
		t.Fatalf("writer: %v", err)
	}
	select {
	case err := <-readErrs:
		t.Fatalf("reader: %v", err)
	default:
	}
	select {
	case err := <-bareErrs:
		t.Fatalf("bare reader: %v", err)
	default:
	}

	// Once quiesced and unpinned, reclaim collapses every chain.
	db.Reclaim()
	vs := versionStats(db)
	if vs.MaxChainDepth != 1 {
		t.Fatalf("chain depth after quiesce = %d, want 1 (%+v)", vs.MaxChainDepth, vs)
	}
	if got := sumVals(t, db); got != wantSum {
		t.Fatalf("final sum = %d, want %d", got, wantSum)
	}
}
