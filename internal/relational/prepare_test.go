package relational

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

// stubCoordinator is a test Coordinator: a committed-xid set plus the
// frames (with their last sequences) a coordinator log would hold.
type stubCoordinator struct {
	committed map[uint64]bool
	seqs      []uint64
	frames    [][]byte
}

func (c *stubCoordinator) Committed(xid uint64) bool { return c.committed[xid] }

func (c *stubCoordinator) FramesAfter(seq uint64) []byte {
	var out []byte
	for i, s := range c.seqs {
		if s > seq {
			out = append(out, c.frames[i]...)
		}
	}
	return out
}

func (c *stubCoordinator) add(t testing.TB, xid uint64, pg *PreparedGroup, frame []byte) {
	t.Helper()
	c.committed[xid] = true
	c.seqs = append(c.seqs, pg.Seq())
	c.frames = append(c.frames, append([]byte(nil), frame...))
}

// prepareParent prepares (not publishes) an insert of one parent row
// under xid and returns the group with its acknowledged frame.
func prepareParent(t testing.TB, db *Database, xid uint64, id int64, name string) (*PreparedGroup, []byte) {
	t.Helper()
	txn := db.Begin()
	if _, err := txn.Insert("parent", map[string]Value{"id": Int_(id), "name": String_(name)}); err != nil {
		t.Fatal(err)
	}
	pg, err := db.PrepareGroup(xid, txn)
	if err != nil {
		t.Fatalf("PrepareGroup: %v", err)
	}
	frame, err := pg.Frame()
	if err != nil {
		t.Fatalf("Frame: %v", err)
	}
	return pg, frame
}

// TestPrepareAppendsWithoutFlush pins the prepare contract: the record
// reaches the shard log byte for byte as Frame returns it, no fsync is
// issued for it, and an fsync failure in a LATER batch never truncates
// it — the acknowledged cross-shard commit it belongs to survives a
// restart from the shard log alone (no repair needed).
func TestPrepareAppendsWithoutFlush(t *testing.T) {
	dir := t.TempDir()
	coord := &stubCoordinator{committed: map[uint64]bool{}}
	db, _ := openWALDB(t, dir, WALOptions{})
	mustInsertParent(t, db, 1, "base")

	before := db.Stats()
	pg, frame := prepareParent(t, db, 7, 2, "prepared")
	if got := db.Stats().Fsyncs - before.Fsyncs; got != 0 {
		t.Fatalf("a prepare issued %d fsyncs, want 0", got)
	}
	seg, err := os.ReadFile(lastSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(seg, frame) {
		t.Fatalf("the shard log does not end with the prepared frame (%d bytes)", len(frame))
	}
	coord.add(t, 7, pg, frame)
	if err := pg.Publish(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().GroupCommits - before.GroupCommits; got != 0 {
		t.Fatalf("a durable prepare counted %d commit groups on the shard, want 0 (the coordinator's flush is the group)", got)
	}

	if err := EnableFailpoint(FpWALFsyncBefore, "error"); err != nil {
		t.Fatal(err)
	}
	defer DisableAllFailpoints()
	if _, err := db.Insert("parent", map[string]Value{"id": Int_(3), "name": String_("doomed")}); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("insert under a failing fsync: %v, want ErrWALFailed", err)
	}
	DisableAllFailpoints()
	after, err := os.ReadFile(lastSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, seg) {
		t.Fatalf("the failed batch left %d log bytes, want the %d it found (prepared record kept, its own record cut)", len(after), len(seg))
	}
	want := dumpDB(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, info := openWALDB(t, dir, WALOptions{Coordinator: coord})
	if got := dumpDB(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state:\n got %v\nwant %v", got, want)
	}
	if info.RepairedTxns != 0 || info.FilteredTxns != 0 {
		t.Fatalf("recovery repaired %d and filtered %d txns, want 0 and 0", info.RepairedTxns, info.FilteredTxns)
	}
}

// TestPrepareSharesBatchFate parks the writer, queues a commit group and
// then a prepare behind it, and fails the one fsync their batch issues:
// the prepare fails with its neighbour, both are undone, the latch is
// free again and nothing of either survives a restart.
func TestPrepareSharesBatchFate(t *testing.T) {
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{})
	mustInsertParent(t, db, 1, "base")
	b := &walBarrier{ready: make(chan struct{}), resume: make(chan struct{})}
	var release sync.Once
	resume := func() { release.Do(func() { close(b.resume) }) }
	defer resume()
	db.commitMu.Lock()
	db.wal.pipe <- &walReq{barrier: b}
	db.commitMu.Unlock()
	<-b.ready

	groupErr := make(chan error, 1)
	go func() {
		_, err := db.Insert("parent", map[string]Value{"id": Int_(2), "name": String_("group")})
		groupErr <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for db.Stats().WALPipelineDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the commit group never queued")
		}
		time.Sleep(time.Millisecond)
	}
	txn := db.Begin()
	if _, err := txn.Insert("parent", map[string]Value{"id": Int_(3), "name": String_("prepared")}); err != nil {
		t.Fatal(err)
	}
	pg, err := db.PrepareGroup(9, txn) // queues behind the group: the latch orders them
	if err != nil {
		t.Fatalf("PrepareGroup: %v", err)
	}
	if err := EnableFailpoint(FpWALFsyncBefore, "error"); err != nil {
		t.Fatal(err)
	}
	defer DisableAllFailpoints()
	before := db.Stats().Fsyncs
	resume()
	if _, err := pg.Frame(); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("Frame after the batch's fsync failed: %v, want ErrWALFailed", err)
	}
	if err := <-groupErr; !errors.Is(err, ErrWALFailed) {
		t.Fatalf("the commit group sharing the batch: %v, want ErrWALFailed", err)
	}
	DisableAllFailpoints()
	if got := db.Stats().Fsyncs - before; got != 0 {
		t.Fatalf("fsyncs advanced by %d under a failing fsync", got)
	}
	if st := db.Stats(); st.TxnsActive != 0 {
		t.Fatalf("txns_active = %d after both failed", st.TxnsActive)
	}
	mustInsertParent(t, db, 4, "after") // the latch was released
	want := dumpDB(t, db)
	if len(want["parent"]) != 2 {
		t.Fatalf("parent rows = %v, want base and after only", want["parent"])
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, _ := openWALDB(t, dir, WALOptions{Coordinator: &stubCoordinator{committed: map[uint64]bool{9: true}}})
	if got := dumpDB(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state:\n got %v\nwant %v", got, want)
	}
}

// TestRecoveryRepairsLostPreparedTail loses the unflushed tail of the
// shard log (two committed prepares and the aborted one between them)
// and recovers: the Coordinator's frames come back in order and are
// re-appended, so a second recovery finds them in the shard log itself,
// behind the single commit made in between.
func TestRecoveryRepairsLostPreparedTail(t *testing.T) {
	dir := t.TempDir()
	coord := &stubCoordinator{committed: map[uint64]bool{}}
	db, _ := openWALDB(t, dir, WALOptions{})
	mustInsertParent(t, db, 1, "base")
	seg := lastSegment(t, dir)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	flushed := st.Size()

	pg, frame := prepareParent(t, db, 11, 2, "first")
	coord.add(t, 11, pg, frame)
	if err := pg.Publish(); err != nil {
		t.Fatal(err)
	}
	pg, _ = prepareParent(t, db, 12, 3, "aborted")
	if err := pg.Abort(); err != nil {
		t.Fatal(err)
	}
	pg, frame = prepareParent(t, db, 13, 4, "second")
	coord.add(t, 13, pg, frame)
	if err := pg.Publish(); err != nil {
		t.Fatal(err)
	}
	want := dumpDB(t, db)
	// Power loss: nothing past the last flush reached the disk. (Closing
	// first only stops the writer; the truncate undoes its final sync.)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, flushed); err != nil {
		t.Fatal(err)
	}

	db2, info := openWALDB(t, dir, WALOptions{Coordinator: coord})
	if info.RepairedTxns != 2 {
		t.Fatalf("repaired %d txns, want 2 (info %+v)", info.RepairedTxns, info)
	}
	if got := dumpDB(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("repaired state:\n got %v\nwant %v", got, want)
	}
	mustInsertParent(t, db2, 5, "after repair")
	want = dumpDB(t, db2)
	if err := db2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db3, info := openWALDB(t, dir, WALOptions{Coordinator: coord})
	if info.RepairedTxns != 0 {
		t.Fatalf("second recovery repaired %d txns, want 0: the first re-appended them", info.RepairedTxns)
	}
	if got := dumpDB(t, db3); !reflect.DeepEqual(got, want) {
		t.Fatalf("second recovery:\n got %v\nwant %v", got, want)
	}
}
