package relational

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// openLogDBs opens n databases over the WAL test schema as the members
// of one log under dir, member i's pages under dir/member-<i>.
func openLogDBs(t testing.TB, dir string, n int) ([]*Database, *WAL, []RecoveryInfo) {
	t.Helper()
	dbs := make([]*Database, n)
	pageDirs := make([]string, n)
	for i := range dbs {
		dbs[i] = NewDatabase(walSchema(t))
		pageDirs[i] = filepath.Join(dir, fmt.Sprintf("member-%d", i))
	}
	w, infos, err := OpenLog(dir, WALOptions{}, dbs, pageDirs)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return dbs, w, infos
}

// parentTxn begins a transaction on db inserting one parent row.
func parentTxn(t testing.TB, db *Database, id int64, name string) *Txn {
	t.Helper()
	txn := db.Begin()
	if _, err := txn.Insert("parent", map[string]Value{"id": Int_(id), "name": String_(name)}); err != nil {
		t.Fatal(err)
	}
	return txn
}

// parkWriter enqueues a barrier under every member's latch, as a
// checkpoint does, and returns once the writer is parked on it; the
// returned resume (idempotent) lets it go.
func parkWriter(t testing.TB, w *WAL) (resume func()) {
	t.Helper()
	b := &walBarrier{ready: make(chan struct{}), resume: make(chan struct{})}
	var release sync.Once
	resume = func() { release.Do(func() { close(b.resume) }) }
	t.Cleanup(resume) // a parked writer would hang the Close cleanup
	unlock := w.lockMembers()
	w.pipe <- &walReq{barrier: b}
	unlock()
	<-b.ready
	return resume
}

// awaitQueued waits until depth records queue behind a parked writer.
// Depth is bumped just before the send, both under the latches: taking
// them once more means the last request is in the queue.
func awaitQueued(t testing.TB, w *WAL, depth int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for w.pipeDepth.Load() != depth {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline depth = %d, want %d queued records", w.pipeDepth.Load(), depth)
		}
		time.Sleep(time.Millisecond)
	}
	w.lockMembers()()
}

// commitQueued commits each transaction from its own goroutine behind a
// parked writer, runs queued (when not nil) once every commit waits in
// the queue, then lets the writer go, so the commits share its next
// batch and fsync. It returns each Commit's error, in txns order.
func commitQueued(t testing.TB, w *WAL, queued func(), txns ...*Txn) []error {
	t.Helper()
	resume := parkWriter(t, w)
	errs := make([]error, len(txns))
	var wg sync.WaitGroup
	for i, txn := range txns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = txn.Commit()
		}()
	}
	awaitQueued(t, w, int64(len(txns)))
	if queued != nil {
		queued()
	}
	resume()
	wg.Wait()
	return errs
}

// TestPrepareAppendsWithoutFlush pins what a commit across members
// costs on one log: a 4-member transaction appends ONE record — its four
// sub-records, member by member — and issues ONE fsync, counts as one
// commit group and one transaction, advances every member's commit
// sequence once, and recovers whole on every member.
func TestPrepareAppendsWithoutFlush(t *testing.T) {
	dir := t.TempDir()
	dbs, w, _ := openLogDBs(t, dir, 4)
	for i, db := range dbs {
		mustInsertParent(t, db, int64(i+1), fmt.Sprintf("base %d", i))
	}
	before := w.Stats()
	seqs := make([]uint64, len(dbs))
	parts := make([]*Txn, len(dbs))
	for i, db := range dbs {
		seqs[i] = db.commitSeq.Load()
		parts[i] = parentTxn(t, db, int64(10+i), fmt.Sprintf("across %d", i))
	}
	var vec sync.Mutex
	if err := CommitAcross(&vec, parts); err != nil {
		t.Fatalf("CommitAcross: %v", err)
	}
	after := w.Stats()
	if got := after.Fsyncs - before.Fsyncs; got != 1 {
		t.Errorf("fsyncs advanced by %d, want 1", got)
	}
	if got := w.appends.Load(); got != int64(len(dbs)+1) {
		t.Errorf("the log holds %d records, want %d: one per base row, one for the transaction", got, len(dbs)+1)
	}
	if g, x := after.GroupCommits-before.GroupCommits, after.GroupedTxns-before.GroupedTxns; g != 1 || x != 1 {
		t.Errorf("group_commits +%d grouped_txns +%d, want +1 each", g, x)
	}
	for i, db := range dbs {
		if got := db.commitSeq.Load() - seqs[i]; got != 1 {
			t.Errorf("member %d commit_seq advanced by %d, want 1", i, got)
		}
		if st := db.Stats(); st.Fsyncs != 0 || st.GroupCommits != 0 {
			t.Errorf("member %d reports the log's counters: %+v", i, st)
		}
	}
	_, data, start, end := lastFrame(t, dir)
	subs, err := decodeRecord(data[start+walFrameHeaderSize:end], nil)
	if err != nil || len(subs) != len(dbs) {
		t.Fatalf("last record: %d sub-records (%v), want %d", len(subs), err, len(dbs))
	}
	for i, s := range subs {
		if s.member != i || len(s.txns) != 1 || s.txns[0].seq != seqs[i]+1 {
			t.Fatalf("sub-record %d: member %d, %d txns, want member %d at sequence %d", i, s.member, len(s.txns), i, seqs[i]+1)
		}
	}
	want := make([]map[string][]string, len(dbs))
	for i, db := range dbs {
		want[i] = dumpDB(t, db)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	dbs2, _, infos := openLogDBs(t, dir, len(dbs))
	for i, db := range dbs2 {
		if got := dumpDB(t, db); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("member %d recovered:\n got %v\nwant %v", i, got, want[i])
		}
		if infos[i].ReplayedTxns != 2 {
			t.Fatalf("member %d replayed %d txns, want its base row and its part", i, infos[i].ReplayedTxns)
		}
	}
}

// TestPrepareSharesBatchFate queues single-member commits on two
// members and a transaction across both behind a parked writer: the
// batch shares ONE fsync. Queued again with that fsync failing, all
// three fail together — every part undone on every member, the latches
// free — and nothing of them survives a restart.
func TestPrepareSharesBatchFate(t *testing.T) {
	faults := injectFaults(t)
	dir := t.TempDir()
	dbs, w, _ := openLogDBs(t, dir, 2)
	var vec sync.Mutex
	round := func(k int64) []error {
		resume := parkWriter(t, w)
		errs := make(chan error, 3)
		for i, db := range dbs {
			txn := parentTxn(t, db, k+int64(i), fmt.Sprint("single ", k+int64(i)))
			go func() { errs <- txn.Commit() }()
		}
		awaitQueued(t, w, 2)
		parts := []*Txn{parentTxn(t, dbs[0], k+10, fmt.Sprint("across ", k)), parentTxn(t, dbs[1], k+10, fmt.Sprint("across ", k))}
		go func() { errs <- CommitAcross(&vec, parts) }()
		awaitQueued(t, w, 3)
		resume()
		return []error{<-errs, <-errs, <-errs}
	}

	before := w.Stats()
	for _, err := range round(100) {
		if err != nil {
			t.Fatalf("queued commit: %v", err)
		}
	}
	after := w.Stats()
	if got := after.Fsyncs - before.Fsyncs; got != 1 {
		t.Errorf("fsyncs advanced by %d for three queued records, want 1", got)
	}
	if g, x := after.GroupCommits-before.GroupCommits, after.GroupedTxns-before.GroupedTxns; g != 1 || x != 3 {
		t.Errorf("group_commits +%d grouped_txns +%d, want +1 and +3", g, x)
	}

	arm(t, faults, "sync:segment=error")
	before = w.Stats()
	for _, err := range round(200) {
		if !errors.Is(err, ErrWALFailed) {
			t.Fatalf("a record sharing the failed fsync: %v, want ErrWALFailed", err)
		}
	}
	arm(t, faults, "")
	if got := w.Stats().Fsyncs - before.Fsyncs; got != 0 {
		t.Fatalf("fsyncs advanced by %d under a failing fsync", got)
	}
	want := make([]map[string][]string, len(dbs))
	for i, db := range dbs {
		if st := db.Stats(); st.TxnsActive != 0 {
			t.Fatalf("member %d: txns_active = %d after the failed batch", i, st.TxnsActive)
		}
		if n := len(dumpDB(t, db)["parent"]); n != 2 {
			t.Fatalf("member %d holds %d parents, want the first round's two", i, n)
		}
		mustInsertParent(t, db, 300, "after") // the latches were released
		want[i] = dumpDB(t, db)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	dbs2, _, _ := openLogDBs(t, dir, len(dbs))
	for i, db := range dbs2 {
		if got := dumpDB(t, db); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("member %d recovered:\n got %v\nwant %v", i, got, want[i])
		}
	}
}
