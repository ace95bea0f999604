package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/bookdb"
	"repro/internal/obs"
	"repro/internal/pagestore"
	"repro/internal/relational"
)

// segments returns the group log's segment files under dir, oldest
// first.
func segments(t testing.TB, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// injectFaults routes every data dir the test opens from here on through
// a FaultFS the test arms with fault specs, and puts OS back when the
// test ends.
func injectFaults(t testing.TB) *pagestore.FaultFS {
	t.Helper()
	faults := &pagestore.FaultFS{}
	relational.FileSystem = faults
	t.Cleanup(func() { relational.FileSystem = pagestore.OS })
	return faults
}

func arm(t testing.TB, faults *pagestore.FaultFS, spec string) {
	t.Helper()
	if err := faults.Arm(spec); err != nil {
		t.Fatal(err)
	}
}

// activeSegment returns the log's highest-indexed segment under dir.
func activeSegment(t testing.TB, dir string) string {
	t.Helper()
	names := segments(t, dir)
	if len(names) == 0 {
		t.Fatalf("no segments under %s", dir)
	}
	return names[len(names)-1]
}

// logEnd returns where the last record of the segment at path ends:
// the zeroed slack after it is not part of the log.
func logEnd(t testing.TB, path string) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(data)
	if len(ends) == 0 {
		return 0
	}
	return ends[len(ends)-1]
}

// frameEnds returns the end offset of every [len][crc][payload] frame in
// data, stopping at the first empty one (an all-zero header: slack).
func frameEnds(data []byte) []int64 {
	var ends []int64
	off := int64(0)
	relational.ScanFrames(data, func(payload []byte) bool {
		if len(payload) == 0 {
			return false
		}
		off += 8 + int64(len(payload))
		ends = append(ends, off)
		return true
	})
	return ends
}

// pubRowID resolves a publisher's row id through w.
func pubRowID(t testing.TB, w relational.Reader, pubid string) relational.RowID {
	t.Helper()
	ids, err := w.LookupEqual("publisher", []string{"pubid"}, []relational.Value{relational.String_(pubid)})
	if err != nil || len(ids) != 1 {
		t.Fatalf("publisher %s: ids=%v err=%v", pubid, ids, err)
	}
	return ids[0]
}

// TestWrongFormatRefused: a 2-shard group's dir stamped with another
// format number is refused with the typed error and keeps its stamp.
func TestWrongFormatRefused(t *testing.T) {
	dir := t.TempDir()
	db, _ := newGroupDir(t, 2, dir)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	stamp := filepath.Join(dir, "FORMAT")
	if err := os.WriteFile(stamp, []byte("1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	schema, err := bookdb.Schema(relational.DeleteCascade)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := New(schema, 2, Options{Dir: dir}); !errors.Is(err, relational.ErrDataDirFormat) {
		t.Fatalf("open gave %v, want ErrDataDirFormat", err)
	}
	if data, err := os.ReadFile(stamp); err != nil || string(data) != "1\n" {
		t.Fatalf("stamp after the refusal: %q %v", data, err)
	}
}

// TestCoordinatorFlushFailureAborts fails the one fsync a cross-shard
// commit waits for: every part aborts on every shard, nothing of the
// transaction is visible or recoverable, the latches are free and the
// next commit succeeds. The subtest is named for the failpoint its fault
// replaced.
func TestCoordinatorFlushFailureAborts(t *testing.T) {
	for _, fp := range []string{"wal.fsync.before"} {
		t.Run(fp, func(t *testing.T) {
			faults := injectFaults(t)
			dir := t.TempDir()
			db, _ := newGroupDir(t, 2, dir)
			want := dump(t, db)
			arm(t, faults, "sync:segment=error")
			txn := db.BeginTxn()
			insertPub(t, txn, pubOnShard(db, 0, "F"), "doomed 0")
			insertPub(t, txn, pubOnShard(db, 1, "F"), "doomed 1")
			if err := txn.Commit(); !errors.Is(err, relational.ErrWALFailed) {
				t.Fatalf("commit under a failing fsync: %v, want ErrWALFailed", err)
			}
			arm(t, faults, "")
			if got := dump(t, db); !reflect.DeepEqual(got, want) {
				t.Fatalf("aborted transaction left a trace:\n got %v\nwant %v", got, want)
			}
			if db.CrossAborts() != 1 || db.CrossCommits() != 0 {
				t.Fatalf("aborts=%d commits=%d, want 1 and 0", db.CrossAborts(), db.CrossCommits())
			}
			if st := db.Stats(); st.TxnsActive != 0 {
				t.Fatalf("txns_active = %d after the abort", st.TxnsActive)
			}
			txn = db.BeginTxn()
			insertPub(t, txn, pubOnShard(db, 0, "G"), "next 0")
			insertPub(t, txn, pubOnShard(db, 1, "G"), "next 1")
			if err := txn.Commit(); err != nil {
				t.Fatalf("commit after the fault cleared: %v", err)
			}
			want = dump(t, db)
			if err := db.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			db2, _ := newGroupDir(t, 2, dir)
			defer db2.CloseWAL()
			if got := dump(t, db2); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered state:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestFsyncFailureKeepsUnflushedPrepare: single-shard commits on both
// shards whose fsync fails truncate their own records away — and must
// not take the acknowledged cross-shard record before them with them.
// The next commit succeeds, and the restart finds exactly the
// acknowledged state.
func TestFsyncFailureKeepsUnflushedPrepare(t *testing.T) {
	faults := injectFaults(t)
	dir := t.TempDir()
	db, _ := newGroupDir(t, 2, dir)
	txn := db.BeginTxn()
	insertPub(t, txn, pubOnShard(db, 0, "H"), "acknowledged 0")
	insertPub(t, txn, pubOnShard(db, 1, "H"), "acknowledged 1")
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	logLen := logEnd(t, activeSegment(t, dir))
	arm(t, faults, "sync:segment=error")
	for s := 0; s < 2; s++ {
		err := commitPub(db, pubOnShard(db, s, "I"), fmt.Sprintf("doomed %d", s))
		if !errors.Is(err, relational.ErrWALFailed) {
			t.Fatalf("single-shard commit under a failing fsync: %v, want ErrWALFailed", err)
		}
	}
	arm(t, faults, "")
	if got := logEnd(t, activeSegment(t, dir)); got != logLen {
		t.Fatalf("the failed commits left the log's records ending at %d, want the %d the acknowledged ones did", got, logLen)
	}
	if err := commitPub(db, pubOnShard(db, 1, "J"), "after the fault"); err != nil {
		t.Fatalf("commit after the fault cleared: %v", err)
	}
	want := dump(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, _ := newGroupDir(t, 2, dir)
	defer db2.CloseWAL()
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state:\n got %v\nwant %v", got, want)
	}
}

// TestCoordinatorLogSealsAndRetires holds segment retirement to its
// rule: a sealed segment goes only once EVERY shard's durable checkpoint
// has passed the highest sequence it holds for that shard. Shard 0's
// records fill some segments and shard 1's others; a checkpoint whose
// page writes fail — which only shard 0 has to do: shard 1's records are
// rows inserted and deleted again, leaving it nothing to page — must
// keep shard 0's segments and retire shard 1's. The next good checkpoint
// retires the rest, and recovery reproduces the exact dump throughout.
func TestCoordinatorLogSealsAndRetires(t *testing.T) {
	faults := injectFaults(t)
	dir := t.TempDir()
	opts := Options{Dir: dir, WAL: relational.WALOptions{SegmentBytes: 2 << 10}}
	db, _ := newGroup(t, 2, opts)
	big := strings.Repeat("x", 700)
	i := 0
	// fill commits on one shard until segs more segments seal and returns
	// the sealed ones it opened: they hold that shard's records only.
	fill := func(shard int, churn bool) []string {
		t.Helper()
		start := len(segments(t, dir))
		for len(segments(t, dir)) < start+4 {
			if i++; i > 200 {
				t.Fatal("the log never sealed")
			}
			txn := db.BeginTxn()
			pub := pubOnShard(db, shard, fmt.Sprintf("S%03d-", i))
			insertPub(t, txn, pub, fmt.Sprintf("%d %s", i, big))
			if churn {
				if _, err := txn.Delete("publisher", pubRowID(t, txn, pub)); err != nil {
					t.Fatal(err)
				}
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		names := segments(t, dir)
		return names[start : len(names)-1]
	}
	if err := db.Checkpoint(); err != nil { // the seed's segments go
		t.Fatal(err)
	}
	shard0, shard1 := fill(0, false), fill(1, true)
	arm(t, faults, "write:heap=error")
	if err := db.Checkpoint(); err == nil {
		t.Fatal("the checkpoint survived shard 0's failing page writes")
	}
	arm(t, faults, "")
	if a, b := db.shards[0].CheckpointSeq(), db.shards[1].CheckpointSeq(); a >= db.shards[0].Stats().CommitSeq || b != db.shards[1].Stats().CommitSeq {
		t.Fatalf("checkpoints at %d and %d: want shard 0 behind, shard 1 caught up", a, b)
	}
	left := strings.Join(segments(t, dir), " ")
	for _, s := range shard0 {
		if !strings.Contains(left, s) {
			t.Fatalf("%s, holding shard 0's uncheckpointed records, was retired", s)
		}
	}
	for _, s := range shard1 {
		if strings.Contains(left, s) {
			t.Fatalf("%s survived checkpoints of both shards past everything it holds (left: %s)", s, left)
		}
	}
	want := dump(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db, _ = newGroup(t, 2, opts)
	if got := dump(t, db); !reflect.DeepEqual(got, want) {
		t.Fatal("recovery with shard 0's segments kept diverged")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := len(segments(t, dir)); n != 1 {
		t.Fatalf("%d segments after a checkpoint of both shards, want only the active one", n)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, _ := newGroup(t, 2, opts)
	defer db2.CloseWAL()
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatal("recovery after retiring every sealed segment diverged")
	}
}

// TestCrossCommitCounters holds the group's Stats rollup to what the
// device did: one cross-shard commit is one fsync of the group's log (no
// shard reports one), one commit group and ONE transaction, its record's
// bytes are in WALBytes, every participating shard's commit sequence
// advances once, and XlogFsyncs/CrossCommits count it.
func TestCrossCommitCounters(t *testing.T) {
	db, _ := newGroupDir(t, 2, t.TempDir())
	defer db.CloseWAL()
	before, shardsBefore := db.Stats(), db.ShardStats()
	txn := db.BeginTxn()
	insertPub(t, txn, pubOnShard(db, 0, "N"), "counted 0")
	insertPub(t, txn, pubOnShard(db, 1, "N"), "counted 1")
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	for i, ss := range db.ShardStats() {
		if ss.Fsyncs != 0 || ss.WALBytes != 0 || ss.GroupCommits != 0 {
			t.Errorf("shard %d reports log counters of its own: %+v", i, ss.DBStats)
		}
		if got := ss.CommitSeq - shardsBefore[i].CommitSeq; got != 1 {
			t.Errorf("shard %d commit_seq advanced by %d, want 1", i, got)
		}
	}
	if got := after.Fsyncs - before.Fsyncs; got != 1 {
		t.Errorf("fsyncs advanced by %d, want 1", got)
	}
	if got := after.GroupCommits - before.GroupCommits; got != 1 {
		t.Errorf("group_commits advanced by %d, want 1", got)
	}
	if got := after.GroupedTxns - before.GroupedTxns; got != 1 {
		t.Errorf("grouped_txns advanced by %d, want 1: one transaction, however many shards", got)
	}
	if got := after.WALBytes - before.WALBytes; got <= 0 {
		t.Errorf("wal_bytes advanced by %d", got)
	}
	if db.XlogFsyncs() != 1 || db.CrossCommits() != 1 {
		t.Errorf("cross-shard fsyncs=%d cross commits=%d, want 1 each", db.XlogFsyncs(), db.CrossCommits())
	}
}

// TestCheckpointCountsOncePerPass: checkpoints_total counts passes of the
// view's log, so one Checkpoint raises it by one on a 4-shard group as on
// an unsharded database, however many shards install pages in the pass.
func TestCheckpointCountsOncePerPass(t *testing.T) {
	group, _ := newGroupDir(t, 4, t.TempDir())
	defer group.CloseWAL()
	single := relational.NewDatabase(group.schema)
	if _, err := single.OpenWAL(t.TempDir(), relational.WALOptions{}); err != nil {
		t.Fatal(err)
	}
	defer single.CloseWAL()
	for name, eng := range map[string]interface {
		relational.Engine
		Checkpoint() error
	}{"4 shards": group, "unsharded": single} {
		for pass := 0; pass < 3; pass++ {
			txn := eng.BeginTxn()
			for s := 0; s < 4; s++ {
				pub := pubOnShard(group, s, fmt.Sprintf("K%d", pass))
				insertPub(t, txn, pub, "counted "+pub)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			before := eng.Stats().Checkpoints
			if err := eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if got := eng.Stats().Checkpoints - before; got != 1 {
				t.Errorf("%s: pass %d raised checkpoints_total by %d, want 1", name, pass, got)
			}
		}
	}
}

// TestStatsFoldShardsAndLog: a durable group's Stats is, field by field,
// the FoldStats of its shards' rollups and its log's own part — sums,
// the worst shard's chain length and pause, the log's histograms once.
func TestStatsFoldShardsAndLog(t *testing.T) {
	db, _ := newGroupDir(t, 4, t.TempDir())
	defer db.CloseWAL()
	for round := 0; round < 2; round++ {
		txn := db.BeginTxn()
		for s := 0; s < 4; s++ {
			pub := pubOnShard(db, s, fmt.Sprintf("F%d", round))
			insertPub(t, txn, pub, "folded "+pub)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	var parts []relational.DBStats
	for _, ss := range db.ShardStats() {
		parts = append(parts, ss.DBStats)
	}
	logPart := db.log.Stats()
	want := obs.FoldStats(append(parts, logPart)...)
	got := db.Stats()
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s: Stats %v, fold %v", gv.Type().Field(i).Name, gv.Field(i), wv.Field(i))
		}
	}
	var seqs uint64
	for _, p := range parts {
		seqs += p.CommitSeq
	}
	if got.CommitSeq != seqs || got.Checkpoints != logPart.Checkpoints || got.FsyncHist.Count != logPart.FsyncHist.Count {
		t.Errorf("fold: commit_seq %d (shards sum %d), checkpoints %d (log %d), fsync samples %d (log %d)",
			got.CommitSeq, seqs, got.Checkpoints, logPart.Checkpoints, got.FsyncHist.Count, logPart.FsyncHist.Count)
	}
	if got.FsyncHist.Count == 0 || got.CheckpointPauseHist.Count == 0 {
		t.Errorf("the log's histograms did not reach the group: %d fsyncs, %d pauses", got.FsyncHist.Count, got.CheckpointPauseHist.Count)
	}
}

// TestCommitCrossAllocs pins what a cross-shard commit allocates on an
// in-memory 4-shard group: the commit's request, its part slice and its
// participant array — nothing per participant, no consumed map.
func TestCommitCrossAllocs(t *testing.T) {
	db, _ := newGroup(t, 4, Options{})
	// Two publishers on different shards; each run renames both in one
	// transaction, so every run dirties exactly two shards.
	pubs := [2]string{pubOnShard(db, 1, "A"), pubOnShard(db, 3, "A")}
	txn := db.BeginTxn()
	for _, pub := range pubs {
		insertPub(t, txn, pub, "v0 "+pub)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	ids := [2]relational.RowID{pubRowID(t, db, pubs[0]), pubRowID(t, db, pubs[1])}
	changes := [2]map[string]relational.Value{
		{"pubname": relational.String_("v1 " + pubs[0])},
		{"pubname": relational.String_("v1 " + pubs[1])},
	}
	// AllocsPerRun cannot exclude the set-up of each run, so measure the
	// whole cycle and the cycle minus the commit, and pin the difference.
	cycle := func(commit bool) float64 {
		return testing.AllocsPerRun(200, func() {
			txn := db.BeginTxn().(*Txn)
			for i, id := range ids {
				if err := txn.sub(db.shardOf(id)).UpdateRow("publisher", id, changes[i]); err != nil {
					t.Fatal(err)
				}
			}
			if commit {
				if err := db.commitOne(txn); err != nil {
					t.Fatal(err)
				}
			} else if err := txn.Rollback(); err != nil {
				t.Fatal(err)
			}
		})
	}
	with, without := cycle(true), cycle(false)
	// Rollback itself allocates nothing, so the difference is the commit's.
	if got := with - without; got > 3 {
		t.Fatalf("a 2-shard in-memory cross-shard commit allocates %.0f objects more than a rollback, want at most 3", got)
	}
	if db.CrossCommits() < 200 {
		t.Fatalf("only %d cross-shard commits ran", db.CrossCommits())
	}
}

// CrossAborts counts cross-shard commits that failed, every part undone.
func (db *DB) CrossAborts() int64 { return db.crossAborts.Load() }
