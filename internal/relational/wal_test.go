package relational

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pagestore"
)

// walSchema is a small parent/child pair exercising PK, UNIQUE, FK and
// CASCADE through the durable path.
func walSchema(t testing.TB) *Schema {
	t.Helper()
	parent, err := NewTableDef("parent", []Column{
		{Name: "id", Type: TypeInt},
		{Name: "name", Type: TypeString, NotNull: true, Unique: true},
	}, []string{"id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	child, err := NewTableDef("child", []Column{
		{Name: "id", Type: TypeInt},
		{Name: "parent_id", Type: TypeInt},
		{Name: "val", Type: TypeString},
	}, []string{"id"}, []ForeignKey{{
		Name: "child_parent_fk", Columns: []string{"parent_id"},
		RefTable: "parent", RefColumns: []string{"id"}, OnDelete: DeleteCascade,
	}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchema(parent, child)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func openWALDB(t testing.TB, dir string, opts WALOptions) (*Database, *RecoveryInfo) {
	t.Helper()
	db := NewDatabase(walSchema(t))
	info, err := db.OpenWAL(dir, opts)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	t.Cleanup(func() { _ = db.CloseWAL() })
	return db, info
}

// injectFaults routes every data dir the test opens from here on through
// a FaultFS the test arms with fault specs, and puts OS back when the
// test ends.
func injectFaults(t testing.TB) *pagestore.FaultFS {
	t.Helper()
	faults := &pagestore.FaultFS{}
	FileSystem = faults
	t.Cleanup(func() { FileSystem = pagestore.OS })
	return faults
}

func arm(t testing.TB, faults *pagestore.FaultFS, spec string) {
	t.Helper()
	if err := faults.Arm(spec); err != nil {
		t.Fatal(err)
	}
}

// dumpDB flattens the committed state into table -> each row as
// "id=rendered values", in scan order: recovery comparisons check the
// rows and the order a scan visits them in.
func dumpDB(t testing.TB, r Reader) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, def := range r.Schema().Tables() {
		name := def.Name
		var rows []string
		if err := r.Scan(name, func(r *Row) bool {
			parts := make([]string, len(r.Values))
			for i, v := range r.Values {
				parts[i] = v.EncodeKey()
			}
			rows = append(rows, fmt.Sprintf("%d=%s", r.ID, strings.Join(parts, "|")))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		out[name] = rows
	}
	return out
}

func mustInsertParent(t testing.TB, db *Database, id int64, name string) (rid RowID) {
	t.Helper()
	write(t, db, func(tx *Txn) (err error) {
		rid, err = tx.Insert("parent", map[string]Value{"id": Int_(id), "name": String_(name)})
		return err
	})
	return rid
}

func mustInsertChild(t testing.TB, db *Database, id, pid int64, val string) (rid RowID) {
	t.Helper()
	write(t, db, func(tx *Txn) (err error) {
		rid, err = tx.Insert("child", map[string]Value{"id": Int_(id), "parent_id": Int_(pid), "val": String_(val)})
		return err
	})
	return rid
}

// TestScanOrderSurvivesRecovery: two transactions commit against their
// id order. A scan visits their rows in id order, which is insertion
// order, before a restart, after one that replays both from the log
// (in commit order), and after one that restores them from pages.
func TestScanOrderSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{})
	first, second := db.Begin(), db.Begin()
	a, err := first.Insert("parent", map[string]Value{"id": Int_(1), "name": String_("first")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := second.Insert("parent", map[string]Value{"id": Int_(2), "name": String_("second")})
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := first.Commit(); err != nil {
		t.Fatal(err)
	}
	scans := func(stage string, db *Database) {
		t.Helper()
		var ids []RowID
		if err := db.Scan("parent", func(r *Row) bool { ids = append(ids, r.ID); return true }); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ids, []RowID{a, b}) {
			t.Fatalf("%s: scan visits %v, want [%d %d]", stage, ids, a, b)
		}
	}
	scans("before a restart", db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db, _ = openWALDB(t, dir, WALOptions{})
	scans("after replay", db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db, _ = openWALDB(t, dir, WALOptions{})
	scans("after restoring from pages", db)
}

func TestWALPersistAndRecover(t *testing.T) {
	dir := t.TempDir()
	db, info := openWALDB(t, dir, WALOptions{})
	if info.ReplayedTxns != 0 || info.CheckpointRows != 0 {
		t.Fatalf("fresh dir recovered something: %+v", info)
	}

	p1 := mustInsertParent(t, db, 1, "alpha")
	mustInsertParent(t, db, 2, "beta")
	c1 := mustInsertChild(t, db, 10, 1, "x")
	mustInsertChild(t, db, 11, 2, "y")
	write(t, db, func(tx *Txn) error {
		return tx.UpdateRow("child", c1, map[string]Value{"val": String_("x2")})
	})
	// CASCADE delete of parent 1 removes child 10 in the same txn.
	write(t, db, func(tx *Txn) error {
		_, err := tx.Delete("parent", p1)
		return err
	})
	want := dumpDB(t, db)
	wantSeq := db.commitSeq.Load()
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	db2, info2 := openWALDB(t, dir, WALOptions{})
	if info2.ReplayedTxns == 0 {
		t.Fatalf("expected replayed txns, got %+v", info2)
	}
	if info2.TornTail {
		t.Fatalf("clean shutdown reported a torn tail: %+v", info2)
	}
	if got := dumpDB(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state mismatch:\n got %v\nwant %v", got, want)
	}
	if got := db2.commitSeq.Load(); got != wantSeq {
		t.Fatalf("commitSeq after recovery = %d, want %d", got, wantSeq)
	}
	// The engine keeps working after recovery: constraints, new commits.
	tx := db2.Begin()
	if _, err := tx.Insert("parent", map[string]Value{"id": Int_(2), "name": String_("dup-id")}); !errors.Is(err, ErrPrimaryKey) {
		t.Fatalf("duplicate PK after recovery: %v", err)
	}
	if _, err := tx.Insert("parent", map[string]Value{"id": Int_(3), "name": String_("beta")}); !errors.Is(err, ErrUnique) {
		t.Fatalf("duplicate UNIQUE after recovery: %v", err)
	}
	tx.Rollback()
	mustInsertParent(t, db2, 3, "gamma")
	if st := db2.Stats(); st.RecoveryReplayedTxns != info2.ReplayedTxns {
		t.Fatalf("stats recovery_replayed_txns = %d, want %d", st.RecoveryReplayedTxns, info2.ReplayedTxns)
	}
}

// dirBytes maps every file under dir to its contents, by relative path.
func dirBytes(t testing.TB, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDataDirFormat: a fresh dir is stamped before the log or a page
// store creates anything in it, and reopens; a dir stamped with another
// number, or holding segments and no stamp, is refused with
// ErrDataDirFormat and left byte for byte as it was.
func TestDataDirFormat(t *testing.T) {
	dir := t.TempDir()
	// A page directory that cannot be created fails the first open after
	// the stamp and before any segment or page-store file.
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenLog(dir, WALOptions{}, []*Database{NewDatabase(walSchema(t))}, []string{filepath.Join(blocker, "pages")})
	if err == nil {
		t.Fatal("open with an uncreatable page directory succeeded")
	}
	want := map[string]string{formatFileName: fmt.Sprintf("%d\n", dataDirFormat)}
	if got := dirBytes(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a failed first open the dir holds %q, want only the stamp", got)
	}

	db, _ := openWALDB(t, dir, WALOptions{})
	mustInsertParent(t, db, 1, "one")
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db, info := openWALDB(t, dir, WALOptions{})
	if err := db.CloseWAL(); err != nil || info.CommitSeq == 0 {
		t.Fatalf("reopen: commit seq %d, close %v", info.CommitSeq, err)
	}

	refused := func(name string, damage func(stamped string) error, found string) {
		t.Helper()
		copied := t.TempDir()
		copyDir(t, dir, copied)
		if err := damage(filepath.Join(copied, formatFileName)); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, copied)
		_, err := NewDatabase(walSchema(t)).OpenWAL(copied, WALOptions{})
		if !errors.Is(err, ErrDataDirFormat) {
			t.Fatalf("%s: open gave %v, want ErrDataDirFormat", name, err)
		}
		for _, part := range []string{copied, "format " + found, fmt.Sprintf("reads format %d", dataDirFormat), "reseed: delete " + copied} {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("%s: %q does not say %q", name, err, part)
			}
		}
		if after := dirBytes(t, copied); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: the refused open changed the dir", name)
		}
	}
	refused("the retired format", func(p string) error { return os.WriteFile(p, []byte("1\n"), 0o644) }, "1")
	refused("no stamp", os.Remove, "none")

	// A stamp a crash cut short at its tmp file leaves the dir fresh.
	fresh := t.TempDir()
	if err := os.WriteFile(filepath.Join(fresh, formatFileName+".tmp"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	openWALDB(t, fresh, WALOptions{})
}

func TestWALCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation so the checkpoint has work to do.
	db, _ := openWALDB(t, dir, WALOptions{SegmentBytes: 256})
	for i := int64(1); i <= 20; i++ {
		mustInsertParent(t, db, i, "p"+String_(Value{Kind: KindInt, Int: i}.String()).Str)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Checkpoints != 2 { // one at OpenWAL (fresh dir), one explicit
		t.Fatalf("checkpoints_total = %d, want 2", st.Checkpoints)
	}
	if st.WALSegments != 1 {
		t.Fatalf("wal_segments after checkpoint = %d, want 1 (active only)", st.WALSegments)
	}
	// Post-checkpoint commits land in the new segment chain.
	for i := int64(21); i <= 25; i++ {
		mustInsertParent(t, db, i, Value{Kind: KindInt, Int: i}.String())
	}
	want := dumpDB(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	db2, info := openWALDB(t, dir, WALOptions{})
	if info.CheckpointRows != 20 {
		t.Fatalf("checkpoint rows = %d, want 20", info.CheckpointRows)
	}
	if info.ReplayedTxns != 5 {
		t.Fatalf("replayed txns = %d, want 5", info.ReplayedTxns)
	}
	if got := dumpDB(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state mismatch after checkpoint:\n got %v\nwant %v", got, want)
	}
}

// TestWALCheckpointCadence: with segments so small that commits
// rotate them, checkpoints at a fixed commit cadence keep retiring the
// sealed ones, so the chain stays short.
func TestWALCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{SegmentBytes: 128})
	for i := int64(1); i <= 40; i++ {
		mustInsertParent(t, db, i, Value{Kind: KindInt, Int: i}.String())
		if i%8 == 0 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := db.Stats()
	if st.Checkpoints < 2 {
		t.Fatalf("expected automatic checkpoints, got %d", st.Checkpoints)
	}
	if st.WALSegments > 3 {
		t.Fatalf("segment chain not being truncated: %d live segments", st.WALSegments)
	}
}

// TestCheckpointerRetriesFailedPass: a checkpointer pass that fails is
// retried on the next tick even when nothing was appended since, so the
// dirty rows do not stay resident, nor the segments unretired, until the
// next write.
func TestCheckpointerRetriesFailedPass(t *testing.T) {
	faults := injectFaults(t)
	db, _ := openWALDB(t, t.TempDir(), WALOptions{})
	mustInsertParent(t, db, 1, "one")
	arm(t, faults, "write:heap=error@1")
	before := db.Stats()
	stop := db.StartCheckpointer(10 * time.Millisecond)
	defer stop()
	// Every pass, failed or not, records its pause as it returns: wait for
	// a success and for more passes than successes.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st := db.Stats()
		ok := st.Checkpoints - before.Checkpoints
		passes := int64(st.CheckpointPauseHist.Count - before.CheckpointPauseHist.Count)
		if ok > 0 && passes > ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 2s of 10ms ticks, %d passes and %d succeeded: want a pass that succeeded after one that failed", passes, ok)
		}
	}
}

// lastSegment returns the path of the highest-indexed segment file.
func lastSegment(t testing.TB, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSegmentIndex(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no segment files")
	}
	sort.Strings(names)
	return filepath.Join(dir, names[len(names)-1])
}

// lastFrame finds the newest record under dir: the highest-indexed
// segment holding one (the active segment holds only zeros right after
// a rotation or open), its contents, and where the record's frame starts
// and ends. Past end lies the segment's zeroed slack.
func lastFrame(t testing.TB, dir string) (seg string, data []byte, start, end int64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSegmentIndex(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for i := len(names) - 1; i >= 0; i-- {
		seg = filepath.Join(dir, names[i])
		if data, err = os.ReadFile(seg); err != nil {
			t.Fatal(err)
		}
		// An all-zero header reads as an empty frame; recovery refuses it
		// as a record, and so does this walk.
		start, end = 0, 0
		ScanFrames(data, func(payload []byte) bool {
			if len(payload) == 0 {
				return false
			}
			start, end = end, end+walFrameHeaderSize+int64(len(payload))
			return true
		})
		if end > 0 {
			return seg, data, start, end
		}
	}
	t.Fatal("no segment holds a record")
	return
}

func TestWALTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{})
	for i := int64(1); i <= 5; i++ {
		mustInsertParent(t, db, i, Value{Kind: KindInt, Int: i}.String())
	}
	wantWithout5 := dumpDB(t, db)
	wantWithout5["parent"] = wantWithout5["parent"][:4] // row 5 scans last
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: its final 3 bytes never reached the file,
	// which still holds its slack after them.
	seg, data, _, end := lastFrame(t, dir)
	clear(data[end-3 : end])
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, info := openWALDB(t, dir, WALOptions{})
	if !info.TornTail || info.TruncatedBytes == 0 {
		t.Fatalf("torn tail not detected: %+v", info)
	}
	if info.ReplayedTxns != 4 {
		t.Fatalf("replayed %d txns, want 4 (torn 5th discarded)", info.ReplayedTxns)
	}
	got := dumpDB(t, db2)
	if !reflect.DeepEqual(got["parent"], wantWithout5["parent"]) {
		t.Fatalf("state after torn tail:\n got %v\nwant %v", got["parent"], wantWithout5["parent"])
	}
	// The log stays appendable: new commits and another clean recovery.
	mustInsertParent(t, db2, 6, "six")
	want := dumpDB(t, db2)
	if err := db2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db3, info3 := openWALDB(t, dir, WALOptions{})
	if info3.TornTail {
		t.Fatalf("second recovery still sees a torn tail: %+v", info3)
	}
	if got := dumpDB(t, db3); !reflect.DeepEqual(got, want) {
		t.Fatalf("state after reopen:\n got %v\nwant %v", got, want)
	}
}

func TestWALCorruptCRCStopsReplay(t *testing.T) {
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{})
	for i := int64(1); i <= 5; i++ {
		mustInsertParent(t, db, i, Value{Kind: KindInt, Int: i}.String())
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the LAST record's payload so its CRC fails.
	seg, data, _, end := lastFrame(t, dir)
	data[end-1] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, info := openWALDB(t, dir, WALOptions{})
	if !info.TornTail {
		t.Fatalf("CRC corruption not detected: %+v", info)
	}
	if info.ReplayedTxns != 4 {
		t.Fatalf("replayed %d txns, want 4 (corrupt 5th dropped)", info.ReplayedTxns)
	}
	if n := db2.RowCount("parent"); n != 4 {
		t.Fatalf("parent rows = %d, want 4", n)
	}
}

func TestWALCorruptionMidChainStopsThere(t *testing.T) {
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{})
	for i := int64(1); i <= 5; i++ {
		mustInsertParent(t, db, i, Value{Kind: KindInt, Int: i}.String())
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the THIRD record: recovery must stop before it, keeping
	// only the first two txns, and must not error or replay garbage.
	seg, data, _, _ := lastFrame(t, dir)
	// Walk frames to find the third record's payload offset.
	off := int64(0)
	for i := 0; i < 2; i++ {
		n := int64(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += walFrameHeaderSize + n
	}
	data[off+walFrameHeaderSize] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, info := openWALDB(t, dir, WALOptions{})
	if info.ReplayedTxns != 2 {
		t.Fatalf("replayed %d txns, want 2 (stop at first bad record)", info.ReplayedTxns)
	}
	if n := db2.RowCount("parent"); n != 2 {
		t.Fatalf("parent rows = %d, want 2", n)
	}

	// A bad record in a sealed segment ends the log there too: recovery
	// removes every later segment, so once it has cut the bad segment
	// back — the chain now reads whole — nothing past the bad record
	// comes back, and a commit after it is the next in the log.
	dir = t.TempDir()
	opts := WALOptions{SegmentBytes: 256}
	db, _ = openWALDB(t, dir, opts)
	for i := int64(1); i <= 20; i++ {
		mustInsertParent(t, db, i, Value{Kind: KindInt, Int: i}.String())
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("segments %v (%v), want at least 3", segs, err)
	}
	sort.Strings(segs)
	data, err = os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	first := int64(binary.LittleEndian.Uint32(data)) + walFrameHeaderSize
	data[first+walFrameHeaderSize] ^= 0xFF // the second record's payload
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, info = openWALDB(t, dir, opts)
	if n := db2.RowCount("parent"); n != 1 || !info.TornTail {
		t.Fatalf("recovered %d rows (torn tail %v), want the 1 before the bad record", n, info.TornTail)
	}
	for _, seg := range segs[1:] {
		if _, err := os.Stat(seg); !os.IsNotExist(err) {
			t.Fatalf("%s, past the bad record, survived recovery (%v)", seg, err)
		}
	}
	mustInsertParent(t, db2, 100, "after")
	want := dumpDB(t, db2)
	if err := db2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db3, _ := openWALDB(t, dir, opts)
	if got := dumpDB(t, db3); !reflect.DeepEqual(got, want) {
		t.Fatalf("second recovery:\n got %v\nwant %v", got, want)
	}
}

func TestWALFsyncErrorFailsWholeGroup(t *testing.T) {
	faults := injectFaults(t)
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{})
	mustInsertParent(t, db, 1, "base")

	arm(t, faults, "sync:segment=error")

	// Two transactions committed as one group: the fsync failure must
	// fail BOTH (the regression this guards: a flush with no error to
	// surface, so a member could be acknowledged without durability).
	t1 := db.Begin()
	if _, err := t1.Insert("parent", map[string]Value{"id": Int_(2), "name": String_("g1")}); err != nil {
		t.Fatal(err)
	}
	t2 := db.Begin()
	if _, err := t2.Insert("parent", map[string]Value{"id": Int_(3), "name": String_("g2")}); err != nil {
		t.Fatal(err)
	}
	err := db.CommitGroup(t1, t2)
	if !errors.Is(err, ErrWALFailed) {
		t.Fatalf("CommitGroup error = %v, want ErrWALFailed", err)
	}
	// Neither transaction's effects are visible, both are finished.
	if n := db.RowCount("parent"); n != 1 {
		t.Fatalf("parent rows after failed group = %d, want 1", n)
	}
	if err := t1.Commit(); err == nil || errors.Is(err, ErrWALFailed) {
		t.Fatalf("re-commit of failed txn: %v, want finished error", err)
	}
	// After the fault clears, the database is fully usable and the ids
	// never became durable.
	arm(t, faults, "")
	mustInsertParent(t, db, 4, "after")
	want := dumpDB(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, _ := openWALDB(t, dir, WALOptions{})
	if got := dumpDB(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state:\n got %v\nwant %v", got, want)
	}
}

// TestWALErrorFailpointsRollBackCleanly fails a commit's write or fsync:
// the commit fails with ErrWALFailed, state is unchanged, the log stays
// valid for both further commits and recovery. Each subtest is named for
// the failpoint its fault replaced; the torn write is a short one, which
// leaves half the frame in the segment and fails.
func TestWALErrorFailpointsRollBackCleanly(t *testing.T) {
	for _, c := range []struct{ name, fault string }{
		{"wal.append.before", "write:segment=error"},
		{"wal.append.partial", ""},
		{"wal.fsync.before", "sync:segment=error"},
	} {
		t.Run(c.name, func(t *testing.T) {
			faults := injectFaults(t)
			short := &shortWriteFS{FS: pagestore.OS}
			faults.FS = short
			dir := t.TempDir()
			db, _ := openWALDB(t, dir, WALOptions{})
			mustInsertParent(t, db, 1, "base")
			arm(t, faults, c.fault)
			short.on.Store(c.fault == "")
			if err := parentTxn(t, db, 2, "doomed").Commit(); !errors.Is(err, ErrWALFailed) {
				t.Fatalf("insert error = %v, want ErrWALFailed", err)
			}
			arm(t, faults, "")
			short.on.Store(false)
			mustInsertParent(t, db, 3, "survivor")
			want := dumpDB(t, db)
			if err := db.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			db2, info := openWALDB(t, dir, WALOptions{})
			if got := dumpDB(t, db2); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered state:\n got %v\nwant %v", got, want)
			}
			if info.TornTail {
				t.Fatalf("unexpected torn tail for %s: %+v", c.name, info)
			}
		})
	}
}

// shortWriteFS, while on, writes the first half of a write's bytes and
// fails it, as a device that fills up mid-write does.
type shortWriteFS struct {
	pagestore.FS
	on atomic.Bool
}

func (s *shortWriteFS) OpenFile(name string, flag int, perm os.FileMode) (pagestore.File, error) {
	f, err := pagestore.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return shortWriteFile{f, &s.on}, nil
}

type shortWriteFile struct {
	pagestore.File
	on *atomic.Bool
}

func (f shortWriteFile) WriteAt(p []byte, off int64) (int, error) {
	if !f.on.Load() {
		return f.File.WriteAt(p, off)
	}
	n, _ := f.File.WriteAt(p[:len(p)/2], off)
	return n, errors.New("short write")
}

// TestWALCloseRejectsFurtherCommits: a commit on a closed log is
// stamped, then refused before it reaches the writer stage, and undone:
// nothing of it is visible, nothing stays open, and a reopen recovers
// exactly the closed state.
func TestWALCloseRejectsFurtherCommits(t *testing.T) {
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{})
	mustInsertParent(t, db, 1, "one")
	want := dumpDB(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := parentTxn(t, db, 2, "late").Commit(); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("insert after close = %v, want ErrWALFailed", err)
	}
	// Reads still serve, and the refused commit left no trace.
	if n := db.RowCount("parent"); n != 1 {
		t.Fatalf("rows after close = %d, want 1", n)
	}
	if got := dumpDB(t, db); !reflect.DeepEqual(got, want) {
		t.Fatalf("state after the refused commit:\n got %v\nwant %v", got, want)
	}
	if st := db.Stats(); st.TxnsActive != 0 {
		t.Fatalf("txns_active = %d after the refused commit", st.TxnsActive)
	}
	db2, _ := openWALDB(t, dir, WALOptions{})
	if got := dumpDB(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state:\n got %v\nwant %v", got, want)
	}
}

func TestWALStatsSurface(t *testing.T) {
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{})
	mustInsertParent(t, db, 1, "one")
	st := db.Stats()
	if st.WALSegments == 0 || st.WALBytes == 0 || st.Fsyncs == 0 || st.Checkpoints == 0 {
		t.Fatalf("WAL stats not populated: %+v", st)
	}
	// Every pass records its latched window, which is part of the pass.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = db.Stats()
	if p, s := st.CheckpointPauseHist, st.CheckpointStallHist; s.Count == 0 || s.Count != p.Count || s.Sum > p.Sum {
		t.Fatalf("stall histogram %d passes / %d ns, pause histogram %d / %d", s.Count, s.Sum, p.Count, p.Sum)
	}
	// In-memory databases keep all-zero WAL stats.
	mem := NewDatabase(walSchema(t))
	if st := mem.Stats(); st.WALSegments != 0 || st.Fsyncs != 0 {
		t.Fatalf("in-memory database reports WAL stats: %+v", st)
	}
}

func TestWALGroupPayloadRoundTrip(t *testing.T) {
	txns := []walTxn{
		{seq: 7, ops: []walOp{
			{kind: walOpInsert, table: "parent", id: 3, payload: encodeRowPayload(nil, []Value{Int_(3), String_("x")})},
			{kind: walOpUpdate, table: "parent", id: 3, payload: encodeRowPayload(nil, []Value{Int_(3), Null()})},
			{kind: walOpDelete, table: "child", id: 9},
		}},
		{seq: 8, ops: []walOp{
			{kind: walOpInsert, table: "t", id: 1, payload: encodeRowPayload(nil, []Value{Float_(2.5), String_("")})},
		}},
		{seq: 9, ops: nil},
	}
	got, err := decodeGroupPayload(encodeGroupPayload(txns))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(txns) {
		t.Fatalf("round-trip txn count %d, want %d", len(got), len(txns))
	}
	for i := range txns {
		if got[i].seq != txns[i].seq || len(got[i].ops) != len(txns[i].ops) {
			t.Fatalf("txn %d mismatch: %+v vs %+v", i, got[i], txns[i])
		}
		for j := range txns[i].ops {
			w, g := txns[i].ops[j], got[i].ops[j]
			if g.kind != w.kind || g.table != w.table || g.id != w.id || !bytes.Equal(g.payload, w.payload) {
				t.Fatalf("op %d/%d mismatch: %+v vs %+v", i, j, g, w)
			}
		}
	}
}

// FuzzWALRecordDecode holds the record decoder to its contract: never
// panic on arbitrary bytes, and when a payload does decode, re-encoding
// the decoded form must reproduce an equivalent record (the corpus
// seeds it with real encodings, one-part and several-part records
// alike). Every record is an 'S' record, so a top-level 'G' payload is
// an input that must fail to decode, and a lone member-0 part re-encodes
// as itself. Equivalence is byte equality of the re-encodings: a NaN
// float decodes unequal to itself but keeps its bits
// (testdata/fuzz/FuzzWALRecordDecode/nan-float-value).
func FuzzWALRecordDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{walTagGroup})
	f.Add([]byte{walTagMember})
	f.Add(encodeGroupPayload([]walTxn{{seq: 3}}))
	f.Add(encodeRecordPayload([]walSub{{member: 0, txns: []walTxn{{seq: 1, ops: []walOp{
		{kind: walOpInsert, table: "parent", id: 1, payload: encodeRowPayload(nil, []Value{Int_(1), String_("a")})},
		{kind: walOpDelete, table: "parent", id: 1},
	}}}}}))
	f.Add(encodeRecordPayload([]walSub{{member: 0, txns: []walTxn{{seq: 1 << 40, ops: []walOp{
		{kind: walOpUpdate, table: "x", id: 1 << 33, payload: encodeRowPayload(nil, []Value{Float_(-1.5), Null()})},
	}}}}}))
	f.Add(encodeRecordPayload([]walSub{{member: 1, txns: []walTxn{{seq: 5, ops: []walOp{
		{kind: walOpInsert, table: "parent", id: 2, payload: encodeRowPayload(nil, []Value{Int_(2), Null()})},
	}}}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		subs, err := decodeRecord(data, nil)
		if err != nil {
			return
		}
		if data[0] != walTagMember {
			t.Fatalf("a payload tagged %q decoded", data[0])
		}
		re := encodeRecordPayload(subs)
		again, err := decodeRecord(re, nil)
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		if !bytes.Equal(encodeRecordPayload(again), re) {
			t.Fatalf("round-trip drift:\nfirst  %+v\nsecond %+v", subs, again)
		}
	})
}
