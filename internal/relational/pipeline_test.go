package relational

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/pagestore"
)

// TestPipelinePublishOrderInvariant hammers the commit pipeline with
// concurrent writers while a reader snapshots continuously: every
// snapshot must see each writer's commits as a prefix of that writer's
// own sequence — the sequence-barrier publish means a later commit can
// never become visible before an earlier one. Run under -race this also
// checks the writer stage's synchronization.
//
// The writers do nothing but Begin/Insert/Commit: the writer stage is
// the only thing batching them, so the counters must show one commit
// group per fsync it issued and one grouped transaction per commit.
// (Whether the fsyncs actually coalesce is storage-dependent; that the
// two counters agree is not.)
func TestPipelinePublishOrderInvariant(t *testing.T) {
	const writers, perWriter = 8, 200
	db, _ := openWALDB(t, t.TempDir(), WALOptions{})
	before := db.Stats()

	var wg sync.WaitGroup
	stopRead := make(chan struct{})
	readErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			snap := db.Snapshot()
			maxSeen := make([]int64, writers)
			seen := make(map[int64]bool)
			err := snap.Scan("parent", func(r *Row) bool {
				id := r.Values[0].Int
				w, k := id/1000, id%1000
				seen[id] = true
				if k > maxSeen[w] {
					maxSeen[w] = k
				}
				return true
			})
			snap.Close()
			if err != nil {
				select {
				case readErr <- err:
				default:
				}
				return
			}
			for w := 0; w < writers; w++ {
				for k := int64(1); k <= maxSeen[w]; k++ {
					if !seen[int64(w)*1000+k] {
						select {
						case readErr <- fmt.Errorf("writer %d: commit %d visible but %d missing", w, maxSeen[w], k):
						default:
						}
						return
					}
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := int64(1); k <= perWriter; k++ {
				id := int64(w)*1000 + k
				txn := db.Begin()
				_, err := txn.Insert("parent", map[string]Value{
					"id": Int_(id), "name": String_(fmt.Sprintf("w%d-%d", w, k)),
				})
				if err == nil {
					err = txn.Commit()
				}
				if err != nil {
					t.Errorf("writer %d commit %d: %v", w, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopRead)
	select {
	case err := <-readErr:
		t.Fatal(err)
	default:
	}
	if n := db.RowCount("parent"); n != writers*perWriter {
		t.Fatalf("rows = %d, want %d", n, writers*perWriter)
	}
	after := db.Stats()
	if after.WALSegments != before.WALSegments {
		t.Fatalf("segments %d -> %d: a rotation's fsyncs would blur the counts below", before.WALSegments, after.WALSegments)
	}
	txns := after.GroupedTxns - before.GroupedTxns
	groups := after.GroupCommits - before.GroupCommits
	fsyncs := after.Fsyncs - before.Fsyncs
	if txns != writers*perWriter {
		t.Errorf("grouped_txns = %d, want %d", txns, writers*perWriter)
	}
	if groups != fsyncs || groups < 1 || groups > txns {
		t.Errorf("group_commits = %d, fsyncs_total = %d: want equal and within [1, %d]", groups, fsyncs, txns)
	}
	if got := after.CommitSeq - before.CommitSeq; got != writers*perWriter {
		t.Errorf("commit_seq advanced by %d, want %d", got, writers*perWriter)
	}
}

// TestWriterStageCoalescesQueuedCommits pins the group commit itself,
// without depending on storage speed: the writer is parked on a barrier
// (enqueued under commitMu, as Checkpoint does), eight commits on
// disjoint rows queue behind it, and releasing the writer must make all
// eight durable with ONE fsync, as ONE group.
func TestWriterStageCoalescesQueuedCommits(t *testing.T) {
	const commits = 8
	db, _ := openWALDB(t, t.TempDir(), WALOptions{})
	txns := make([]*Txn, commits)
	for i := range txns {
		txns[i] = parentTxn(t, db, int64(i+1), fmt.Sprintf("queued-%d", i+1))
	}
	before := db.Stats()
	for _, err := range commitQueued(t, db.wal, nil, txns...) {
		if err != nil {
			t.Fatalf("queued commit: %v", err)
		}
	}
	after := db.Stats()
	if got := after.Fsyncs - before.Fsyncs; got != 1 {
		t.Errorf("fsyncs_total advanced by %d, want 1 for %d queued commits", got, commits)
	}
	if got := after.GroupCommits - before.GroupCommits; got != 1 {
		t.Errorf("group_commits advanced by %d, want 1", got)
	}
	if got := after.GroupedTxns - before.GroupedTxns; got != commits {
		t.Errorf("grouped_txns advanced by %d, want %d", got, commits)
	}
	if n := db.RowCount("parent"); n != commits {
		t.Errorf("rows = %d, want %d", n, commits)
	}
}

// TestWriterStageCoalescesAcrossMembers is the same count on a log two
// databases share: single-member commits on each, queued behind the
// parked writer, become durable with ONE fsync as ONE group, and each
// member's commit sequence advances by its own commits.
func TestWriterStageCoalescesAcrossMembers(t *testing.T) {
	const perMember = 4
	dbs, w, _ := openLogDBs(t, t.TempDir(), 2)
	resume := parkWriter(t, w)
	before := w.Stats()
	errs := make(chan error, 2*perMember)
	for i, db := range dbs {
		for k := range perMember {
			go func() {
				tx := db.Begin()
				if _, err := tx.Insert("parent", map[string]Value{"id": Int_(int64(k)), "name": String_(fmt.Sprintf("member %d row %d", i, k))}); err != nil {
					tx.Rollback()
					errs <- err
					return
				}
				errs <- tx.Commit()
			}()
		}
	}
	awaitQueued(t, w, 2*perMember)
	resume()
	for range 2 * perMember {
		if err := <-errs; err != nil {
			t.Fatalf("queued commit: %v", err)
		}
	}
	after := w.Stats()
	if got := after.Fsyncs - before.Fsyncs; got != 1 {
		t.Errorf("fsyncs_total advanced by %d, want 1 for %d queued commits on two members", got, 2*perMember)
	}
	if g, x := after.GroupCommits-before.GroupCommits, after.GroupedTxns-before.GroupedTxns; g != 1 || x != 2*perMember {
		t.Errorf("group_commits +%d grouped_txns +%d, want +1 and +%d", g, x, 2*perMember)
	}
	for i, db := range dbs {
		if got := db.Stats().CommitSeq; got != perMember {
			t.Errorf("member %d commit_seq = %d, want %d", i, got, perMember)
		}
	}
}

// TestPipelineFsyncErrorUnderConcurrency injects a one-shot fsync
// failure while concurrent commits stream through the pipeline: the
// groups sharing the failed flush roll back with ErrWALFailed, every
// other commit survives, and recovery reproduces exactly the surviving
// set — a failed group never resurfaces, a successful one never
// disappears.
func TestPipelineFsyncErrorUnderConcurrency(t *testing.T) {
	const writers, perWriter = 4, 25
	faults := injectFaults(t)
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{})
	arm(t, faults, "sync:segment=error@10")

	var mu sync.Mutex
	committed := make(map[int64]bool)
	var failures int
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := int64(1); k <= perWriter; k++ {
				id := int64(w)*1000 + k
				tx := db.Begin()
				_, err := tx.Insert("parent", map[string]Value{
					"id": Int_(id), "name": String_(fmt.Sprintf("w%d-%d", w, k)),
				})
				if err == nil {
					err = tx.Commit()
				} else {
					tx.Rollback()
				}
				mu.Lock()
				switch {
				case err == nil:
					committed[id] = true
				case errors.Is(err, ErrWALFailed):
					failures++
				default:
					t.Errorf("commit %d: unexpected error %v", id, err)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	arm(t, faults, "")
	if failures == 0 {
		t.Fatal("the fsync fault never failed a commit")
	}
	if n := db.RowCount("parent"); n != len(committed) {
		t.Fatalf("visible rows = %d, want %d committed", n, len(committed))
	}
	want := dumpDB(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, _ := openWALDB(t, dir, WALOptions{})
	if got := dumpDB(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state != surviving state:\n got %v\nwant %v", got, want)
	}
}

// TestCommitInvisibleUntilDurable holds the writer stage to its order:
// while a record's fsync runs, no snapshot sees its transaction — the
// commit sequence advances only once the fsync has returned.
func TestCommitInvisibleUntilDurable(t *testing.T) {
	var watched *Database // set while the one commit runs
	syncs := 0
	FileSystem = &syncHookFS{FS: pagestore.OS, hook: func() {
		if watched == nil {
			return
		}
		syncs++
		snap := watched.Snapshot()
		defer snap.Close()
		if n := snap.RowCount("parent"); n != 0 {
			t.Errorf("a snapshot taken during the commit's fsync sees %d rows", n)
		}
	}}
	t.Cleanup(func() { FileSystem = pagestore.OS })
	db, _ := openWALDB(t, t.TempDir(), WALOptions{})
	watched = db
	mustInsertParent(t, db, 1, "one")
	watched = nil
	if syncs == 0 {
		t.Fatal("the commit issued no segment fsync")
	}
	if n := db.RowCount("parent"); n != 1 {
		t.Fatalf("rows after the commit = %d, want 1", n)
	}
}

// syncHookFS runs hook before every fsync of a log segment.
type syncHookFS struct {
	pagestore.FS
	hook func()
}

func (s *syncHookFS) OpenFile(name string, flag int, perm os.FileMode) (pagestore.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil || pagestore.ClassOf("open", name) != "segment" {
		return f, err
	}
	return syncHookFile{f, s.hook}, nil
}

type syncHookFile struct {
	pagestore.File
	hook func()
}

func (f syncHookFile) Sync() error {
	f.hook()
	return f.File.Sync()
}

// TestCheckpointReplacesDirectory: a WAL directory holds its stamp, its
// segments, the heap and the one page directory — every checkpoint
// replaces that file and leaves no other behind — and recovery through
// the directory plus the WAL tail reproduces the exact state, as does a
// second recovery after a checkpoint of the first.
func TestCheckpointReplacesDirectory(t *testing.T) {
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{})
	for i := int64(1); i <= 10; i++ {
		mustInsertParent(t, db, i, Value{Kind: KindInt, Int: i}.String())
	}
	for _, key := range []int64{101, 102} {
		mustInsertParent(t, db, key, fmt.Sprint("after ", key))
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for name := range dirBytes(t, dir) {
			if _, seg := parseSegmentIndex(name); !seg && name != formatFileName && name != "heap.pg" && name != "pagedir" {
				t.Fatalf("after a checkpoint the dir holds %s", name)
			}
		}
	}

	mustInsertParent(t, db, 200, "tail")
	want := dumpDB(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, info := openWALDB(t, dir, WALOptions{})
	if info.CheckpointRows != 12 || info.ReplayedTxns != 1 {
		t.Fatalf("recovery restored %d checkpoint rows and replayed %d txns, want 12 and 1", info.CheckpointRows, info.ReplayedTxns)
	}
	if got := dumpDB(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state through the directory:\n got %v\nwant %v", got, want)
	}

	mustInsertParent(t, db2, 300, "post")
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want2 := dumpDB(t, db2)
	if err := db2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db3, _ := openWALDB(t, dir, WALOptions{})
	if got := dumpDB(t, db3); !reflect.DeepEqual(got, want2) {
		t.Fatalf("recovered state after a second checkpoint:\n got %v\nwant %v", got, want2)
	}
}

// TestCheckpointIsODirtyPages is the O(dirty-pages) proxy: a checkpoint
// that saw 5 writes against a 400-row database must write far fewer
// heap pages than the one that covered all 400 — the pause's work
// scales with the dirty set, not database size.
func TestCheckpointIsODirtyPages(t *testing.T) {
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{})
	pad := strings.Repeat("x", 100) // spread 400 rows over many pages
	for i := int64(1); i <= 400; i++ {
		mustInsertParent(t, db, i, fmt.Sprintf("%s-%d", pad, i))
	}
	before := db.Stats().CompactionPagesWritten
	if err := db.Checkpoint(); err != nil { // all 400 rows dirty
		t.Fatal(err)
	}
	allPages := db.Stats().CompactionPagesWritten - before
	for i := int64(1); i <= 5; i++ {
		mustInsertParent(t, db, 1000+i, fmt.Sprintf("%s+%d", pad, i))
	}
	before = db.Stats().CompactionPagesWritten
	if err := db.Checkpoint(); err != nil { // exactly 5 rows dirty
		t.Fatal(err)
	}
	dirtyPages := db.Stats().CompactionPagesWritten - before
	if dirtyPages*5 > allPages {
		t.Fatalf("checkpoint of 5 dirty rows wrote %d pages vs %d for 400 — not O(dirty-pages)", dirtyPages, allPages)
	}
}

// TestActiveSegmentPreallocated: the active segment is exactly
// SegmentBytes after a fresh open, a size rotation, a checkpoint
// rotation, a reopen that recovered records, a failed append and a failed
// fsync, so no append ever grows it; and at each point a recovery from a
// copy of the directory (what a kill -9 leaves) replays exactly the
// acknowledged commits without reporting the slack as a torn tail.
func TestActiveSegmentPreallocated(t *testing.T) {
	const segBytes = 4096
	opts := WALOptions{SegmentBytes: segBytes}
	faults := injectFaults(t)
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, opts)
	var acked []int64
	next := int64(0)
	insert := func() error {
		next++
		err := parentTxn(t, db, next, fmt.Sprint("row ", next)).Commit()
		if err == nil {
			acked = append(acked, next)
		}
		return err
	}
	insertN := func(n int) {
		t.Helper()
		for range n {
			if err := insert(); err != nil {
				t.Fatal(err)
			}
		}
	}
	failOne := func(fault string) {
		t.Helper()
		arm(t, faults, fault)
		if err := insert(); !errors.Is(err, ErrWALFailed) {
			t.Fatalf("insert under %s: %v, want ErrWALFailed", fault, err)
		}
		arm(t, faults, "")
	}
	check := func(point string) {
		t.Helper()
		fi, err := os.Stat(lastSegment(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != segBytes {
			t.Fatalf("%s: active segment %s is %d bytes, want %d", point, fi.Name(), fi.Size(), segBytes)
		}
		copied := t.TempDir()
		copyDir(t, dir, copied)
		rec, info := openWALDB(t, copied, opts)
		if info.TornTail {
			t.Fatalf("%s: recovery reported a torn tail: %+v", point, info)
		}
		var got []int64
		if err := rec.Scan("parent", func(r *Row) bool { got = append(got, r.Values[0].Int); return true }); err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if !reflect.DeepEqual(got, acked) {
			t.Fatalf("%s: recovered ids %v, want the acknowledged %v", point, got, acked)
		}
	}

	check("fresh open")
	first := lastSegment(t, dir)
	for lastSegment(t, dir) == first {
		if next > 1000 {
			t.Fatal("1000 inserts never rotated a 4 KiB segment")
		}
		insertN(1)
	}
	check("size rotation")
	insertN(3)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("checkpoint rotation")
	insertN(3)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	var info *RecoveryInfo
	db, info = openWALDB(t, dir, opts)
	if info.ReplayedTxns != 3 || info.TornTail {
		t.Fatalf("reopen: %+v, want 3 replayed txns and no torn tail", info)
	}
	check("reopen")
	insertN(2)
	failOne("write:segment=error")
	check("failed append")
	insertN(2)
	failOne("sync:segment=error")
	check("failed fsync")
	insertN(2)
	check("appends after the failures")
}

// copyDir copies the files under src into dst.
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
