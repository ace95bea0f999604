package shard

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/bookdb"
	"repro/internal/relational"
)

// newGroup opens a bookstore group and streams the sample rows in when
// the directory (if any) holds no committed state yet — the way the
// registry boots a view.
func newGroup(t *testing.T, n int, opts Options) (*DB, *Recovery) {
	t.Helper()
	schema, err := bookdb.Schema(relational.DeleteCascade)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	db, rec, err := New(schema, n, opts)
	if err != nil {
		t.Fatalf("New(n=%d): %v", n, err)
	}
	var committed uint64
	for _, ri := range rec.Shards {
		committed += ri.CommitSeq
	}
	if committed == 0 {
		if _, err := db.Load(bookdb.Populate); err != nil {
			t.Fatalf("seed: %v", err)
		}
	}
	return db, rec
}

// dump renders every visible row of every table as "table|id|v1,v2,..".
func dump(t *testing.T, rd relational.Reader) []string {
	t.Helper()
	var out []string
	for _, def := range rd.Schema().Tables() {
		name := def.Name
		err := rd.Scan(name, func(r *relational.Row) bool {
			line := fmt.Sprintf("%s|%d|", name, r.ID)
			for _, v := range r.Values {
				line += v.EncodeKey() + ","
			}
			out = append(out, line)
			return true
		})
		if err != nil {
			t.Fatalf("scan %s: %v", name, err)
		}
	}
	return out
}

// pubOnShard finds a publisher id (with the given prefix) whose PK hash
// routes to the wanted shard.
func pubOnShard(db *DB, want int, prefix string) string {
	for i := 0; ; i++ {
		id := fmt.Sprintf("%s%04d", prefix, i)
		if int(hashVals([]relational.Value{relational.String_(id)})%uint64(db.n)) == want {
			return id
		}
	}
}

func insertPub(t *testing.T, w relational.WriteTxn, pubid, pubname string) {
	t.Helper()
	if _, err := w.Insert("publisher", map[string]relational.Value{
		"pubid": relational.String_(pubid), "pubname": relational.String_(pubname),
	}); err != nil {
		t.Fatalf("insert publisher %s: %v", pubid, err)
	}
}

// commitPub inserts one publisher in a transaction of its own,
// returning the insert's or the commit's error.
func commitPub(eng relational.Engine, pubid, pubname string) error {
	txn := eng.BeginTxn()
	if _, err := txn.Insert("publisher", map[string]relational.Value{
		"pubid": relational.String_(pubid), "pubname": relational.String_(pubname),
	}); err != nil {
		txn.Rollback()
		return err
	}
	return txn.Commit()
}

func insertBook(w relational.WriteTxn, bookid, pubid string) error {
	_, err := w.Insert("book", map[string]relational.Value{
		"bookid": relational.String_(bookid), "title": relational.String_("t-" + bookid),
		"pubid": relational.String_(pubid), "price": relational.Float_(10),
		"year": relational.Int_(2000),
	})
	return err
}

// TestShardsOneParity drives the same write sequence through a
// 1-shard group and a plain database and requires byte-for-byte equal
// dumps, row ids included: shards=1 must be indistinguishable from the
// unsharded path.
func TestShardsOneParity(t *testing.T) {
	plain, err := bookdb.NewDatabase(relational.DeleteCascade)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	group, _ := newGroup(t, 1, Options{})
	run := func(eng relational.Engine) {
		t.Helper()
		if err := commitPub(eng, "Z01", "Parity Press"); err != nil {
			t.Fatalf("insert: %v", err)
		}
		txn := eng.BeginTxn()
		if err := insertBook(txn, "99001", "Z01"); err != nil {
			t.Fatalf("book: %v", err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		ids, err := eng.LookupEqual("book", []string{"bookid"}, []relational.Value{relational.String_("98001")})
		if err != nil || len(ids) != 1 {
			t.Fatalf("lookup: %v %v", ids, err)
		}
		txn = eng.BeginTxn()
		if err := txn.UpdateRow("book", ids[0], map[string]relational.Value{
			"price": relational.Float_(39.99),
		}); err != nil {
			t.Fatalf("update: %v", err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit update: %v", err)
		}
		txn = eng.BeginTxn()
		if _, err := txn.Delete("book", ids[0]); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit delete: %v", err)
		}
	}
	run(plain)
	run(group)
	got, want := dump(t, group), dump(t, plain)
	if len(got) != len(want) {
		t.Fatalf("row counts differ: sharded %d vs plain %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dump line %d differs:\nsharded: %s\nplain:   %s", i, got[i], want[i])
		}
	}
}

// TestRoutingCoLocatesAndStripes checks the two routing invariants: a
// child row lives on its parent's shard (transitively), and every row
// id's residue identifies its shard.
func TestRoutingCoLocatesAndStripes(t *testing.T) {
	db, _ := newGroup(t, 4, Options{})
	// Grow the dataset so every shard sees traffic.
	for i := 0; i < 8; i++ {
		pub := fmt.Sprintf("P%02d", i)
		if err := commitPub(db, pub, "House "+pub); err != nil {
			t.Fatalf("publisher: %v", err)
		}
		txn := db.BeginTxn()
		if err := insertBook(txn, fmt.Sprintf("90%03d", i), pub); err != nil {
			t.Fatalf("book: %v", err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	shardOfKey := func(table, col, key string) int {
		ids, err := db.LookupEqual(table, []string{col}, []relational.Value{relational.String_(key)})
		if err != nil || len(ids) != 1 {
			t.Fatalf("lookup %s=%s: ids=%v err=%v", table, key, ids, err)
		}
		return db.shardOf(ids[0])
	}
	// Each shard must own its rows id-residue-wise.
	for i, s := range db.shards {
		for _, def := range db.schema.Tables() {
			table := def.Name
			s.Scan(table, func(r *relational.Row) bool {
				if db.shardOf(r.ID) != i {
					t.Errorf("%s row %d stored on shard %d but residue says %d", table, r.ID, i, db.shardOf(r.ID))
				}
				return true
			})
		}
	}
	// Children co-locate with parents.
	bookDef, _ := db.Schema().Table("book")
	pubCol, _ := bookDef.ColumnIndex("pubid")
	db.Scan("book", func(r *relational.Row) bool {
		if pub := r.Values[pubCol]; !pub.IsNull() {
			if ps := shardOfKey("publisher", "pubid", pub.Str); ps != db.shardOf(r.ID) {
				t.Errorf("book %d on shard %d, its publisher on shard %d", r.ID, db.shardOf(r.ID), ps)
			}
		}
		return true
	})
	reviewDef, _ := db.Schema().Table("review")
	bookCol, _ := reviewDef.ColumnIndex("bookid")
	db.Scan("review", func(r *relational.Row) bool {
		if bs := shardOfKey("book", "bookid", r.Values[bookCol].Str); bs != db.shardOf(r.ID) {
			t.Errorf("review %d on shard %d, its book on shard %d", r.ID, db.shardOf(r.ID), bs)
		}
		return true
	})
}

// TestCrossShardUniqueness inserts duplicate keys whose twins live on
// other shards: the scatter probe must reject them with the canonical
// constraint errors even though the home shard's local check passes.
func TestCrossShardUniqueness(t *testing.T) {
	db, _ := newGroup(t, 4, Options{})
	// Two publishers pinned to different shards.
	p0, p1 := pubOnShard(db, 0, "U"), pubOnShard(db, 1, "U")
	txn := db.BeginTxn()
	insertPub(t, txn, p0, "Unique House A")
	insertPub(t, txn, p1, "Unique House B")
	if err := insertBook(txn, "70001", p0); err != nil {
		t.Fatalf("first book: %v", err)
	}
	// Same bookid under a parent on another shard: local PK check
	// cannot see the twin, the cross-shard probe must.
	if err := insertBook(txn, "70001", p1); !errors.Is(err, relational.ErrPrimaryKey) {
		t.Fatalf("duplicate bookid across shards: got %v, want ErrPrimaryKey", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	// UNIQUE column duplicated across shards (publisher is hash-routed,
	// so equal pubnames under different pubids land on different shards).
	q0, q1 := pubOnShard(db, 2, "Q"), pubOnShard(db, 3, "Q")
	insertPub(t, db.BeginTxnT(t), q0, "Same Name Press")
	w := db.BeginTxn()
	if _, err := w.Insert("publisher", map[string]relational.Value{
		"pubid": relational.String_(q1), "pubname": relational.String_("Same Name Press"),
	}); !errors.Is(err, relational.ErrUnique) {
		t.Fatalf("duplicate pubname across shards: got %v, want ErrUnique", err)
	}
	w.Rollback()
}

// BeginTxnT begins and auto-commits via t.Cleanup-free helper: commit
// immediately after the caller's single insert (test convenience).
func (db *DB) BeginTxnT(t *testing.T) relational.WriteTxn {
	t.Helper()
	return &autoCommitTxn{t: t, WriteTxn: db.BeginTxn()}
}

type autoCommitTxn struct {
	t *testing.T
	relational.WriteTxn
}

func (a *autoCommitTxn) Insert(table string, values map[string]relational.Value) (relational.RowID, error) {
	id, err := a.WriteTxn.Insert(table, values)
	if err != nil {
		return id, err
	}
	return id, a.WriteTxn.Commit()
}

// TestCrossShardFKAndCascade: a dangling child is rejected wherever it
// lands, and deleting a parent cascades through co-located children.
func TestCrossShardFKAndCascade(t *testing.T) {
	db, _ := newGroup(t, 4, Options{})
	txn := db.BeginTxn()
	if err := insertBook(txn, "60001", "NOPE"); !errors.Is(err, relational.ErrForeignKey) {
		t.Fatalf("dangling FK: got %v, want ErrForeignKey", err)
	}
	txn.Rollback()
	// Cascade: delete publisher A01 → its books and their reviews go.
	ids, err := db.LookupEqual("publisher", []string{"pubid"}, []relational.Value{relational.String_("A01")})
	if err != nil || len(ids) != 1 {
		t.Fatalf("find A01: %v %v", ids, err)
	}
	before := db.RowCount("book") + db.RowCount("review")
	txn = db.BeginTxn()
	n, err := txn.Delete("publisher", ids[0])
	if err != nil {
		t.Fatalf("cascade delete: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit cascade: %v", err)
	}
	if n < 3 { // publisher + 2 books + 2 reviews under A01
		t.Fatalf("cascade removed %d rows, want >= 3", n)
	}
	after := db.RowCount("book") + db.RowCount("review")
	if after >= before {
		t.Fatalf("cascade did not shrink book+review rows: %d -> %d", before, after)
	}
	books, _ := db.LookupEqual("book", []string{"pubid"}, []relational.Value{relational.String_("A01")})
	if len(books) != 0 {
		t.Fatalf("books of A01 survived cascade: %v", books)
	}
}

// TestSnapshotVectorConsistency runs cross-shard pair inserts against
// concurrent snapshot readers: every snapshot must see both halves of
// a pair or neither — a half-visible cross-shard commit is a torn
// vector. Run with -race.
func TestSnapshotVectorConsistency(t *testing.T) {
	db, _ := newGroup(t, 2, Options{})
	const pairs = 40
	a := make([]string, pairs)
	b := make([]string, pairs)
	for i := range a {
		a[i] = pubOnShard(db, 0, fmt.Sprintf("A%d-", i))
		b[i] = pubOnShard(db, 1, fmt.Sprintf("B%d-", i))
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := db.OpenSnapshot()
				for i := range a {
					ia, _ := snap.LookupEqual("publisher", []string{"pubid"}, []relational.Value{relational.String_(a[i])})
					ib, _ := snap.LookupEqual("publisher", []string{"pubid"}, []relational.Value{relational.String_(b[i])})
					if (len(ia) == 1) != (len(ib) == 1) {
						t.Errorf("torn vector: pair %d half-visible (a=%d b=%d)", i, len(ia), len(ib))
					}
				}
				snap.Close()
			}
		}()
	}
	for i := range a {
		txn := db.BeginTxn()
		insertPub(t, txn, a[i], "PairA "+a[i])
		insertPub(t, txn, b[i], "PairB "+b[i])
		if err := txn.Commit(); err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
	}
	close(stop)
	readers.Wait()
	if got := db.CrossCommits(); got != pairs {
		t.Fatalf("cross-shard commits: got %d, want %d", got, pairs)
	}
}

// TestTwoPhaseRecovery exercises the commit point of a cross-shard
// commit, its one record: a record that reached the log recovers on
// every shard; one cut short (as a crash mid-append leaves it) is
// discarded on every shard — never a torn prefix — and the group goes on
// committing across shards. (internal/walcrash's TestCrashStates
// reopens every state a power cut can leave of such a log.)
func TestTwoPhaseRecovery(t *testing.T) {
	dir := t.TempDir()
	open := func() (*DB, *Recovery) {
		return newGroupDir(t, 2, dir)
	}
	db, _ := open()
	p0, p1 := pubOnShard(db, 0, "R"), pubOnShard(db, 1, "R")
	seg := activeSegment(t, dir)
	before := logEnd(t, seg)
	txn := db.BeginTxn()
	insertPub(t, txn, p0, "Recovered A")
	insertPub(t, txn, p1, "Recovered B")
	if err := txn.Commit(); err != nil {
		t.Fatalf("cross commit: %v", err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatalf("close: %v", err)
	}
	visible := func(db *DB, want int) {
		t.Helper()
		for _, pub := range []string{p0, p1} {
			ids, err := db.LookupEqual("publisher", []string{"pubid"}, []relational.Value{relational.String_(pub)})
			if err != nil || len(ids) != want {
				t.Fatalf("publisher %s: ids=%v err=%v, want %d", pub, ids, err, want)
			}
		}
	}
	// The record is in the log: both halves recover.
	db2, rec := open()
	visible(db2, 1)
	for i, ri := range rec.Shards {
		if ri.ReplayedTxns != 1 {
			t.Fatalf("shard %d replayed %d txns, want its half of the record", i, ri.ReplayedTxns)
		}
	}
	if err := db2.CloseWAL(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// A crash mid-append: the record's last byte never reached the disk.
	// Recovery must discard both halves.
	after := logEnd(t, seg)
	if err := os.Truncate(seg, after-1); err != nil {
		t.Fatal(err)
	}
	db3, rec3 := open()
	defer db3.CloseWAL()
	visible(db3, 0)
	if !rec3.Shards[0].TornTail || rec3.Shards[0].TruncatedBytes != after-1-before {
		t.Fatalf("recovery report %+v: want the torn record's %d bytes cut", rec3.Shards[0], after-1-before)
	}
	txn = db3.BeginTxn()
	insertPub(t, txn, pubOnShard(db3, 0, "S"), "Post A")
	insertPub(t, txn, pubOnShard(db3, 1, "S"), "Post B")
	if err := txn.Commit(); err != nil {
		t.Fatalf("post-recovery cross commit: %v", err)
	}
}

func newGroupDir(t *testing.T, n int, dir string) (*DB, *Recovery) {
	t.Helper()
	return newGroup(t, n, Options{Dir: dir})
}

// TestCrashRestartParity commits a mix of single- and cross-shard
// transactions, reopens the group from disk, and requires the recovered
// contents to equal the pre-crash contents exactly.
func TestCrashRestartParity(t *testing.T) {
	dir := t.TempDir()
	db, _ := newGroupDir(t, 4, dir)
	for i := 0; i < 6; i++ {
		pub := fmt.Sprintf("C%02d", i)
		if err := commitPub(db, pub, "Crash "+pub); err != nil {
			t.Fatalf("publisher: %v", err)
		}
	}
	txn := db.BeginTxn()
	insertPub(t, txn, pubOnShard(db, 1, "X"), "Cross A")
	insertPub(t, txn, pubOnShard(db, 2, "X"), "Cross B")
	if err := txn.Commit(); err != nil {
		t.Fatalf("cross: %v", err)
	}
	want := dump(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db2, _ := newGroupDir(t, 4, dir)
	defer db2.CloseWAL()
	got := dump(t, db2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered line %d differs:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}

// TestConcurrentCrossShardCommits drives many cross-shard transactions
// from parallel goroutines (latches taken in ascending shard order, no
// vector latch until publish), with snapshot readers checking vector
// atomicity throughout, and verifies the log: every transaction durable,
// never more fsyncs carrying them than commits. Run with -race.
func TestConcurrentCrossShardCommits(t *testing.T) {
	dir := t.TempDir()
	db, _ := newGroupDir(t, 4, dir)
	const n = 24
	a := make([]string, n)
	b := make([]string, n)
	for i := range a {
		a[i] = pubOnShard(db, i%4, fmt.Sprintf("GA%d-", i))
		b[i] = pubOnShard(db, (i+1)%4, fmt.Sprintf("GB%d-", i))
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := db.OpenSnapshot()
			for i := range a {
				ia, _ := snap.LookupEqual("publisher", []string{"pubid"}, []relational.Value{relational.String_(a[i])})
				ib, _ := snap.LookupEqual("publisher", []string{"pubid"}, []relational.Value{relational.String_(b[i])})
				if (len(ia) == 1) != (len(ib) == 1) {
					t.Errorf("torn vector: pair %d half-visible (a=%d b=%d)", i, len(ia), len(ib))
				}
			}
			snap.Close()
		}
	}()
	var writers sync.WaitGroup
	for i := 0; i < n; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			txn := db.BeginTxn()
			insertPub(t, txn, a[i], "ConcA "+a[i])
			insertPub(t, txn, b[i], "ConcB "+b[i])
			if err := txn.Commit(); err != nil {
				t.Errorf("pair %d: %v", i, err)
			}
		}(i)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := db.CrossCommits(); got != n {
		t.Fatalf("cross-shard commits: got %d, want %d", got, n)
	}
	if fs := db.XlogFsyncs(); fs < 1 || fs > n {
		t.Fatalf("group commit: %d fsyncs for %d cross-shard commits (want 1..commits)", fs, n)
	}
	want := dump(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db2, _ := newGroupDir(t, 4, dir)
	defer db2.CloseWAL()
	// Concurrent commits make scan order (not content) legitimately
	// differ between the live run and replay: compare as sorted sets.
	got := dump(t, db2)
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered rows differ:\ngot:  %v\nwant: %v", got, want)
	}
}

// TestCommitSharedMixedBatch: CommitShared commits each member on its
// own — single-shard, cross-shard, read-only — skips a nil slot, refuses
// a transaction the group did not begin and reports an already-finished
// one, all without disturbing the neighbours, counts one commit group
// per commit, and leaves no sub-transaction open behind it.
func TestCommitSharedMixedBatch(t *testing.T) {
	db, _ := newGroup(t, 4, Options{})
	pubs := func(rd relational.Reader, id string) int {
		ids, err := rd.LookupEqual("publisher", []string{"pubid"}, []relational.Value{relational.String_(id)})
		if err != nil {
			t.Fatalf("lookup %s: %v", id, err)
		}
		return len(ids)
	}

	single := db.BeginTxn()
	onlyA := pubOnShard(db, 0, "MS-")
	insertPub(t, single, onlyA, "Mixed single")

	cross := db.BeginTxn()
	crossA, crossB := pubOnShard(db, 1, "MXA-"), pubOnShard(db, 2, "MXB-")
	insertPub(t, cross, crossA, "Mixed cross A")
	insertPub(t, cross, crossB, "Mixed cross B")

	readOnly := db.BeginTxn()
	if n := pubs(readOnly, onlyA); n != 0 {
		t.Fatalf("read-only txn sees %d uncommitted rows", n)
	}

	finished := db.BeginTxn()
	insertPub(t, finished, pubOnShard(db, 3, "MF-"), "Mixed finished")
	if err := finished.Commit(); err != nil {
		t.Fatal(err)
	}

	other, err := bookdb.NewDatabase(relational.DeleteCascade)
	if err != nil {
		t.Fatal(err)
	}
	foreign := other.BeginTxn()
	defer foreign.Rollback()

	crossBefore, before := db.CrossCommits(), db.Stats()
	errs := db.CommitShared([]relational.WriteTxn{single, nil, cross, foreign, readOnly, finished})
	if len(errs) != 6 {
		t.Fatalf("got %d error slots, want 6", len(errs))
	}
	for i, name := range map[int]string{0: "single-shard", 1: "nil", 2: "cross-shard", 4: "read-only"} {
		if errs[i] != nil {
			t.Errorf("%s member: %v", name, errs[i])
		}
	}
	if errs[3] == nil {
		t.Error("foreign transaction type was accepted")
	}
	if errs[5] == nil {
		t.Error("already-finished member committed twice")
	}
	for _, id := range []string{onlyA, crossA, crossB} {
		if n := pubs(db, id); n != 1 {
			t.Errorf("publisher %s visible %d times, want 1", id, n)
		}
	}
	if got := db.CrossCommits() - crossBefore; got != 1 {
		t.Errorf("cross-shard commits = %d, want 1", got)
	}
	// In memory each commit is one group, the cross-shard one included.
	if st := db.Stats(); st.GroupCommits-before.GroupCommits != 3 || st.GroupedTxns-before.GroupedTxns != 3 {
		t.Errorf("group_commits +%d grouped_txns +%d for three commits, want +3 each",
			st.GroupCommits-before.GroupCommits, st.GroupedTxns-before.GroupedTxns)
	}
	if open := db.Stats().TxnsActive; open != 0 {
		t.Errorf("%d sub-transactions left open", open)
	}
	if open := other.Stats().TxnsActive; open != 1 {
		t.Errorf("foreign transaction was touched: %d open on its own database, want 1", open)
	}
}

// TestParallelRecoveryAndPagedRollups reopens a 4-shard group and
// checks the new paged-storage plumbing at the group level: every
// shard reports its own recovery wall time (the group recovers shards
// concurrently, so these are the inputs to the max that bounds restart
// latency), the page-cache budget splits across shards without losing
// rows, and Stats rolls the per-shard pager counters up.
func TestParallelRecoveryAndPagedRollups(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, WAL: relational.WALOptions{PageCacheBytes: 256 << 10}}
	db, _ := newGroup(t, 4, opts)
	for i := 0; i < 40; i++ {
		if err := commitPub(db, fmt.Sprintf("R%03d", i), fmt.Sprintf("Rollup %03d", i)); err != nil {
			t.Fatalf("publisher: %v", err)
		}
	}
	want := dump(t, db)
	wantRows := db.RowCount("publisher")
	if err := db.CloseWAL(); err != nil {
		t.Fatalf("close: %v", err)
	}

	db2, rec := newGroup(t, 4, opts)
	defer db2.CloseWAL()
	for i, info := range rec.Shards {
		if info.RecoveryNanos <= 0 {
			t.Errorf("shard %d reported no recovery wall time: %+v", i, info)
		}
	}
	if st := db2.Stats(); st.PagesTotal == 0 {
		t.Fatalf("group stats roll up no checkpoint pages: %+v", st)
	}
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered group state diverged:\n got %d rows\nwant %d rows", len(got), len(want))
	}
	if got := db2.RowCount("publisher"); got != wantRows {
		t.Fatalf("parallel RowCount = %d, want %d", got, wantRows)
	}
	st := db2.Stats()
	if st.PagecacheHits+st.PagecacheMisses == 0 {
		t.Fatalf("scans faulted no pages through the shard pools: %+v", st)
	}
	// The group gauges are sums of the per-shard stores and pools.
	var sumPages, sumMisses int64
	for _, ss := range db2.ShardStats() {
		sumPages += ss.PagesTotal
		sumMisses += ss.PagecacheMisses
	}
	if sumPages != st.PagesTotal || sumMisses != st.PagecacheMisses {
		t.Fatalf("rollup mismatch: shards sum pages=%d misses=%d, group %d/%d",
			sumPages, sumMisses, st.PagesTotal, st.PagecacheMisses)
	}
}
