package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/relational"
)

// activeSegment returns the highest-indexed WAL segment under a shard's
// directory.
func activeSegment(t testing.TB, shardDir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(shardDir, "wal-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments under %s (%v)", shardDir, err)
	}
	sort.Strings(names)
	return names[len(names)-1]
}

func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// frameEnds returns the end offset of every [len][crc][payload] frame in
// data — the framing the shard logs and the coordinator log share.
func frameEnds(data []byte) []int64 {
	var ends []int64
	off := int64(0)
	relational.ScanFrames(data, func(payload []byte) bool {
		off += xlogHeaderSize + int64(len(payload))
		ends = append(ends, off)
		return true
	})
	return ends
}

func copyTree(t testing.TB, src, dst string) {
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

// pubRowID resolves a publisher's row id through w.
func pubRowID(t testing.TB, w relational.Reader, pubid string) relational.RowID {
	t.Helper()
	ids, err := w.LookupEqual("publisher", []string{"pubid"}, []relational.Value{relational.String_(pubid)})
	if err != nil || len(ids) != 1 {
		t.Fatalf("publisher %s: ids=%v err=%v", pubid, ids, err)
	}
	return ids[0]
}

// TestPowerLossCutPoints is the crash-atomicity proof for the one-flush
// cross-shard commit. A seeded mix of single- and cross-shard commits
// runs on 2 shards while the test records, after every commit, how long
// each log is and how much of each shard log a flush has covered. Then,
// for every instant a power loss could strike — after each commit's
// acknowledgement, and for each cross-shard commit before and after its
// coordinator flush — and for every combination of what the two shard
// logs could still hold (each cut at every frame boundary at or past its
// last flushed offset, and once mid-frame; the coordinator log cut at
// the record boundary, and once mid-record), recovery must yield exactly
// the acknowledged prefix: every cross-shard transaction whole or
// absent, nothing acknowledged missing. Two consecutive recoveries must
// agree, and commits made after the first must survive the second —
// which is what fails when a repaired frame is not re-appended.
func TestPowerLossCutPoints(t *testing.T) {
	const commits = 10
	base := t.TempDir()
	db, _ := newGroupDir(t, 2, base)
	segs := [2]string{activeSegment(t, shardDir(base, 0)), activeSegment(t, shardDir(base, 1))}
	xpath := filepath.Join(base, xlogName)

	type instant struct {
		cross   bool
		want    []string // the dump once this commit is acknowledged
		lens    [2]int64 // shard log lengths
		flushed [2]int64 // of which a flush has covered
		xlen    int64
	}
	at := func(prev instant, cross bool, single int) instant {
		in := instant{cross: cross, want: dump(t, db), flushed: prev.flushed, xlen: fileSize(t, xpath)}
		for s := range segs {
			in.lens[s] = fileSize(t, segs[s])
		}
		if !cross {
			in.flushed[single] = in.lens[single]
		}
		return in
	}
	timeline := []instant{at(instant{}, true, 0)}
	timeline[0].flushed = timeline[0].lens // the seed's commits were all flushed

	rng := rand.New(rand.NewSource(20240607))
	var pubs [2][]string // publishers this test inserted, by shard
	for k := 1; k <= commits; k++ {
		cross := rng.Intn(10) < 6
		single := rng.Intn(2)
		txn := db.BeginTxn()
		for s := 0; s < 2; s++ {
			if !cross && s != single {
				continue
			}
			if len(pubs[s]) > 0 && rng.Intn(3) == 0 {
				// Rewrite an earlier row, so a repaired frame must replay
				// on top of exactly the state that preceded it.
				pub := pubs[s][rng.Intn(len(pubs[s]))]
				err := txn.UpdateRow("publisher", pubRowID(t, txn, pub), map[string]relational.Value{
					"pubname": relational.String_(fmt.Sprintf("%s renamed by %d", pub, k))})
				if err != nil {
					t.Fatalf("commit %d: update %s: %v", k, pub, err)
				}
				continue
			}
			pub := pubOnShard(db, s, fmt.Sprintf("K%02d-", k))
			insertPub(t, txn, pub, fmt.Sprintf("commit %d on %d", k, s))
			pubs[s] = append(pubs[s], pub)
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit %d: %v", k, err)
		}
		timeline = append(timeline, at(timeline[k-1], cross, single))
	}
	if db.CrossCommits() < 3 || db.CrossCommits() == commits {
		t.Fatalf("workload has %d cross-shard commits of %d: not a mix", db.CrossCommits(), commits)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	var ends [2][]int64
	for s := range segs {
		data, err := os.ReadFile(segs[s])
		if err != nil {
			t.Fatal(err)
		}
		ends[s] = frameEnds(data)
	}

	// cuts lists what shard s's log may hold when everything up to hi was
	// written and everything up to lo flushed.
	cuts := func(s int, lo, hi int64) []int64 {
		out := []int64{lo}
		for _, e := range ends[s] {
			if e > lo && e <= hi {
				out = append(out, e)
			}
		}
		if hi > lo {
			out = append(out, hi-1) // mid-frame
		}
		return out
	}
	cases := 0
	check := func(name string, len0, len1, xlen int64, want []string) {
		cases++
		dir := t.TempDir()
		copyTree(t, base, dir)
		for path, n := range map[string]int64{
			activeSegment(t, shardDir(dir, 0)): len0,
			activeSegment(t, shardDir(dir, 1)): len1,
			filepath.Join(dir, xlogName):       xlen,
		} {
			if err := os.Truncate(path, n); err != nil {
				t.Fatal(err)
			}
		}
		db1, _ := newGroupDir(t, 2, dir)
		if got := dump(t, db1); !reflect.DeepEqual(got, want) {
			db1.CloseWAL()
			t.Fatalf("%s: recovery is not the acknowledged prefix:\n got %v\nwant %v", name, got, want)
		}
		// Life goes on: a single-shard commit (flushed, so it pins
		// whatever lies before it in that shard's log), then a cross-shard
		// one that reuses whatever xid and sequences the crash freed.
		if _, err := db1.Insert("publisher", map[string]relational.Value{
			"pubid": relational.String_(pubOnShard(db1, cases%2, "Z1-")), "pubname": relational.String_("alone after the crash")}); err != nil {
			t.Fatalf("%s: commit after recovery: %v", name, err)
		}
		txn := db1.BeginTxn()
		insertPub(t, txn, pubOnShard(db1, 0, "Z2-"), "after the crash 0")
		insertPub(t, txn, pubOnShard(db1, 1, "Z2-"), "after the crash 1")
		if err := txn.Commit(); err != nil {
			t.Fatalf("%s: cross-shard commit after recovery: %v", name, err)
		}
		after := dump(t, db1)
		if err := db1.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		db2, rec := newGroupDir(t, 2, dir)
		defer db2.CloseWAL()
		if got := dump(t, db2); !reflect.DeepEqual(got, after) {
			t.Fatalf("%s: second recovery differs from the first plus its commits:\n got %v\nwant %v", name, got, after)
		}
		if rec.RepairedTxns != 0 {
			t.Fatalf("%s: second recovery repaired %d txns: the first did not make its repair durable", name, rec.RepairedTxns)
		}
	}
	for k, in := range timeline {
		// Struck after commit k was acknowledged.
		for _, c0 := range cuts(0, in.flushed[0], in.lens[0]) {
			for _, c1 := range cuts(1, in.flushed[1], in.lens[1]) {
				check(fmt.Sprintf("after commit %d, logs %d/%d", k, c0, c1), c0, c1, in.xlen, in.want)
			}
		}
		if k == 0 || !in.cross {
			continue
		}
		// Struck inside cross-shard commit k: its shard records written
		// (or not), its coordinator record absent, torn, or whole.
		prev := timeline[k-1]
		for _, c0 := range cuts(0, prev.flushed[0], in.lens[0]) {
			for _, c1 := range cuts(1, prev.flushed[1], in.lens[1]) {
				name := fmt.Sprintf("inside commit %d, logs %d/%d", k, c0, c1)
				check(name+", undecided", c0, c1, prev.xlen, prev.want)
				check(name+", coordinator record torn", c0, c1, (prev.xlen+in.xlen)/2, prev.want)
				check(name+", decided", c0, c1, in.xlen, in.want)
			}
		}
	}
	t.Logf("%d crash states recovered twice each", cases)
}

// TestCoordinatorFlushFailureAborts fails the one flush a cross-shard
// commit waits for: both shards abort, nothing of the transaction is
// visible or recoverable, the latches are free and the next commit
// succeeds — before and after the commit point alike (a failure reported
// after the fsync cuts the record back off).
func TestCoordinatorFlushFailureAborts(t *testing.T) {
	for _, fp := range []string{relational.FpXlogFlushBefore, relational.FpXlogFlushAfter} {
		t.Run(fp, func(t *testing.T) {
			dir := t.TempDir()
			db, _ := newGroupDir(t, 2, dir)
			want := dump(t, db)
			if err := relational.EnableFailpoint(fp, "error"); err != nil {
				t.Fatal(err)
			}
			defer relational.DisableAllFailpoints()
			txn := db.BeginTxn()
			insertPub(t, txn, pubOnShard(db, 0, "F"), "doomed 0")
			insertPub(t, txn, pubOnShard(db, 1, "F"), "doomed 1")
			if err := txn.Commit(); !errors.Is(err, relational.ErrWALFailed) {
				t.Fatalf("commit under a failing coordinator flush: %v, want ErrWALFailed", err)
			}
			relational.DisableAllFailpoints()
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
			db2, rec := newGroupDir(t, 2, dir)
			defer db2.CloseWAL()
			if got := dump(t, db2); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered state:\n got %v\nwant %v", got, want)
			}
			if rec.FilteredTxns != 2 || rec.CommittedXids != 1 {
				t.Fatalf("filtered=%d committed=%d, want the aborted pair filtered (2) and one xid committed", rec.FilteredTxns, rec.CommittedXids)
			}
		})
	}
}

// TestFsyncFailureKeepsUnflushedPrepare: a single-shard commit whose
// fsync fails truncates its own record away — and must not take the
// unflushed record of an earlier, acknowledged cross-shard commit with
// it. The restart finds that record in the shard log (nothing to
// repair).
func TestFsyncFailureKeepsUnflushedPrepare(t *testing.T) {
	dir := t.TempDir()
	db, _ := newGroupDir(t, 2, dir)
	txn := db.BeginTxn()
	insertPub(t, txn, pubOnShard(db, 0, "H"), "acknowledged 0")
	insertPub(t, txn, pubOnShard(db, 1, "H"), "acknowledged 1")
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	want := dump(t, db)
	if err := relational.EnableFailpoint(relational.FpWALFsyncBefore, "error"); err != nil {
		t.Fatal(err)
	}
	defer relational.DisableAllFailpoints()
	for s := 0; s < 2; s++ {
		_, err := db.Insert("publisher", map[string]relational.Value{
			"pubid": relational.String_(pubOnShard(db, s, "I")), "pubname": relational.String_(fmt.Sprintf("doomed %d", s))})
		if !errors.Is(err, relational.ErrWALFailed) {
			t.Fatalf("single-shard commit under a failing fsync: %v, want ErrWALFailed", err)
		}
	}
	relational.DisableAllFailpoints()
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, rec := newGroupDir(t, 2, dir)
	defer db2.CloseWAL()
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state:\n got %v\nwant %v", got, want)
	}
	if rec.RepairedTxns != 0 || rec.FilteredTxns != 0 {
		t.Fatalf("repaired=%d filtered=%d, want 0 and 0: the failed batches must have kept the prepared records", rec.RepairedTxns, rec.FilteredTxns)
	}
}

// TestCoordinatorLogSealsAndRetires drives enough cross-shard redo
// through the coordinator log to seal it several times, checkpoints so
// the shards' horizons pass the sealed files, and requires at least two
// to be deleted, the directory to stay bounded, and recovery — before and
// after the retirement — to reproduce the exact dump.
func TestCoordinatorLogSealsAndRetires(t *testing.T) {
	dir := t.TempDir()
	db, _ := newGroupDir(t, 2, dir)
	// Every coordinator file but the one being appended to (the newest).
	sealedFiles := func() []string {
		names, err := filepath.Glob(filepath.Join(dir, xlogName+"*"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(names, func(i, j int) bool { // xlog, xlog-1, …, xlog-10
			return len(names[i]) < len(names[j]) || len(names[i]) == len(names[j]) && names[i] < names[j]
		})
		return names[:max(len(names)-1, 0)]
	}
	big := strings.Repeat("x", 24<<10) // ~48 KiB of redo per commit: ~22 commits a file
	commit := func(i int) {
		txn := db.BeginTxn()
		insertPub(t, txn, pubOnShard(db, 0, fmt.Sprintf("S%03d-", i)), fmt.Sprintf("%d a %s", i, big))
		insertPub(t, txn, pubOnShard(db, 1, fmt.Sprintf("S%03d-", i)), fmt.Sprintf("%d b %s", i, big))
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	i := 0
	for ; len(sealedFiles()) < 3; i++ {
		if i > 200 {
			t.Fatal("the coordinator log never sealed three files")
		}
		commit(i)
	}
	sealedBefore := sealedFiles()
	want := dump(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	// No checkpoint has covered anything yet: every file must still be
	// there and recovery must read them all.
	db, _ = newGroupDir(t, 2, dir)
	if got := dump(t, db); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery across %d sealed files diverged", len(sealedBefore))
	}
	if got := sealedFiles(); !reflect.DeepEqual(got, sealedBefore) {
		t.Fatalf("sealed files %v retired with no checkpoint past them (had %v)", got, sealedBefore)
	}
	// Checkpoint, then seal once more: sealing is when retirement runs.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for n := len(sealedFiles()); len(sealedFiles()) >= n; i++ {
		if i > 400 {
			t.Fatal("the coordinator log never sealed again")
		}
		commit(i)
	}
	left := sealedFiles()
	for _, old := range sealedBefore {
		for _, name := range left {
			if name == old {
				t.Fatalf("sealed file %s survived a checkpoint past everything it holds (left: %v)", old, left)
			}
		}
	}
	if len(left) != 1 {
		t.Fatalf("sealed files left: %v, want only the one just sealed", left)
	}
	want = dump(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, rec := newGroupDir(t, 2, dir)
	defer db2.CloseWAL()
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatal("recovery after retiring sealed coordinator files diverged")
	}
	if rec.FilteredTxns != 0 {
		t.Fatalf("recovery filtered %d txns whose coordinator file was retired", rec.FilteredTxns)
	}
}

// TestLegacyCoordinatorLogRecovers rewrites the coordinator log the way
// the binary before this format wrote it — one bare xid per record, the
// shard logs flushed at prepare — and requires the group to recover it,
// keep appending to the same file in the current format, and recover the
// mixture.
func TestLegacyCoordinatorLogRecovers(t *testing.T) {
	dir := t.TempDir()
	db, _ := newGroupDir(t, 2, dir)
	txn := db.BeginTxn()
	insertPub(t, txn, pubOnShard(db, 0, "L"), "old format 0")
	insertPub(t, txn, pubOnShard(db, 1, "L"), "old format 1")
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	xid := db.nextXid.Load()
	want := dump(t, db)
	if err := db.CloseWAL(); err != nil { // flushes both shard logs, as the old prepare did
		t.Fatal(err)
	}
	payload := binary.AppendUvarint(nil, xid)
	legacy := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	legacy = binary.LittleEndian.AppendUint32(legacy, crc32.ChecksumIEEE(payload))
	legacy = append(legacy, payload...)
	if err := os.WriteFile(filepath.Join(dir, xlogName), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	db, rec := newGroupDir(t, 2, dir)
	if got := dump(t, db); !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy coordinator log:\n got %v\nwant %v", got, want)
	}
	if rec.CommittedXids != 1 || rec.FilteredTxns != 0 || rec.RepairedTxns != 0 {
		t.Fatalf("legacy recovery: %+v", rec)
	}
	txn = db.BeginTxn()
	insertPub(t, txn, pubOnShard(db, 0, "M"), "new format 0")
	insertPub(t, txn, pubOnShard(db, 1, "M"), "new format 1")
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	want = dump(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, rec := newGroupDir(t, 2, dir)
	defer db2.CloseWAL()
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed-format coordinator log:\n got %v\nwant %v", got, want)
	}
	if rec.CommittedXids != 2 {
		t.Fatalf("committed xids = %d, want 2", rec.CommittedXids)
	}
}

// TestCrossCommitCounters holds the group's Stats rollup to what the
// device did: one cross-shard commit is one flush (the coordinator's, no
// shard's), one commit group and ONE transaction, and its coordinator
// record's bytes are in WALBytes; XlogFsyncs/CrossCommits stay as they
// were.
func TestCrossCommitCounters(t *testing.T) {
	db, _ := newGroupDir(t, 2, t.TempDir())
	defer db.CloseWAL()
	before := db.Stats()
	var shardFsyncs, shardBytes int64
	for _, ss := range db.ShardStats() {
		shardFsyncs -= ss.Fsyncs
		shardBytes -= ss.WALBytes
	}
	txn := db.BeginTxn()
	insertPub(t, txn, pubOnShard(db, 0, "N"), "counted 0")
	insertPub(t, txn, pubOnShard(db, 1, "N"), "counted 1")
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	for _, ss := range db.ShardStats() {
		shardFsyncs += ss.Fsyncs
		shardBytes += ss.WALBytes
	}
	if shardFsyncs != 0 {
		t.Errorf("the shard logs flushed %d times for a cross-shard commit, want 0", shardFsyncs)
	}
	if got := after.Fsyncs - before.Fsyncs; got != 1 {
		t.Errorf("fsyncs advanced by %d, want 1 (the coordinator's)", got)
	}
	if got := after.GroupCommits - before.GroupCommits; got != 1 {
		t.Errorf("group_commits advanced by %d, want 1", got)
	}
	if got := after.GroupedTxns - before.GroupedTxns; got != 1 {
		t.Errorf("grouped_txns advanced by %d, want 1: one transaction, however many shards", got)
	}
	if got := after.WALBytes - before.WALBytes; got <= shardBytes || shardBytes <= 0 {
		t.Errorf("wal_bytes advanced by %d with %d in the shard logs, want the coordinator record on top", got, shardBytes)
	}
	if db.XlogFsyncs() != 1 || db.CrossCommits() != 1 {
		t.Errorf("xlog fsyncs=%d cross commits=%d, want 1 each", db.XlogFsyncs(), db.CrossCommits())
	}
}

// TestCommitCrossAllocs pins what a cross-shard commit allocates on an
// in-memory 4-shard group: per participant the sub-transaction's
// PreparedGroup and its member slice, and nothing in commitCross itself
// — no participant slice, no consumed map.
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
	// 2 participants × (PreparedGroup + live slice) = 4; Rollback itself
	// allocates nothing, so the difference is the commit's.
	if got := with - without; got > 4 {
		t.Fatalf("a 2-shard in-memory cross-shard commit allocates %.0f objects more than a rollback, want at most 4", got)
	}
	if db.CrossCommits() < 200 {
		t.Fatalf("only %d cross-shard commits ran", db.CrossCommits())
	}
}

// FuzzXlogRecordDecode holds the coordinator record decoder to its
// contract: arbitrary bytes never panic and never make it hold more
// participants than the bytes could spell, and a payload that decodes
// re-encodes to a record that decodes the same.
func FuzzXlogRecordDecode(f *testing.F) {
	frame := []byte("\x05\x00\x00\x00crc!frame")
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(binary.AppendUvarint(nil, 7))       // the format before redo was carried
	f.Add(binary.AppendUvarint(nil, 1<<63+5)) // ten-byte xid
	f.Add(appendXlogRecord(nil, 3, nil)[xlogHeaderSize:])
	f.Add(appendXlogRecord(nil, 9, []prepared{
		{xlogPart: xlogPart{shard: 0, seq: 41, frame: frame}},
		{xlogPart: xlogPart{shard: 3, seq: 1 << 40, frame: frame[:0]}},
	})[xlogHeaderSize:])
	f.Add([]byte{0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})    // claims 2^32 participants
	f.Add([]byte{0, 1, 1, 0, 1, 0xff, 0xff, 0xff, 0x7f}) // claims a 256 MiB frame
	f.Fuzz(func(t *testing.T, data []byte) {
		xid, parts, ok := decodeXlogRecord(data, nil)
		if cap(parts) > len(data) {
			t.Fatalf("%d bytes decoded into room for %d participants", len(data), cap(parts))
		}
		if !ok {
			return
		}
		if xid == 0 {
			t.Fatal("decoded a zero xid")
		}
		if data[0] != 0 {
			// (Not necessarily the canonical varint: 0x87 0x00 is 7 too.)
			if got, n := binary.Uvarint(data); len(parts) != 0 || got != xid || n != len(data) {
				t.Fatalf("bare-xid payload %x decoded as xid %d with %d participants", data, xid, len(parts))
			}
			return
		}
		in := make([]prepared, len(parts))
		for i, p := range parts {
			in[i].xlogPart = p
		}
		rec := appendXlogRecord(nil, xid, in)
		valid := scanXlog(rec, func(xid2 uint64, again []xlogPart) {
			if xid2 != xid || !reflect.DeepEqual(append([]xlogPart(nil), again...), append([]xlogPart(nil), parts...)) {
				t.Fatalf("round-trip drift: xid %d %+v, then xid %d %+v", xid, parts, xid2, again)
			}
		})
		if valid != int64(len(rec)) {
			t.Fatalf("re-encoded record scanned %d of %d bytes", valid, len(rec))
		}
	})
}
