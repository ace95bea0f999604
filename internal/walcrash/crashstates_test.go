package walcrash

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/relational"
)

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/*.golden from this run")

// The crash-state workload: small enough to reopen every state it can
// leave, long enough to rotate segments and run checkpoints that retire
// them.
const (
	statesTxns      = 24
	statesCkptEvery = 8
	statesSegBytes  = 512
)

// crashState is a distinct state a power cut can leave, with the bounds
// on the committed prefix its recovery must hold: every transaction
// acknowledged at any cut that leaves it, and none not yet begun at one.
type crashState struct {
	crashImage
	lo, hi int64
	at     string // the first cut that leaves it: the operation after it, and its index
}

// stateRecorder collects the crash states of a recorded run.
type stateRecorder struct {
	fs           *recFS
	acked, begun int64 // guarded by fs.mu
	ops          int
	states       map[string]*crashState
	order        []*crashState
}

// cut takes the states a power cut before op could leave. The caller
// holds fs.mu.
func (s *stateRecorder) cut(op string) {
	s.ops++
	at := fmt.Sprintf("op %d (%s)", s.ops, op)
	s.fs.crashImages(func(im crashImage) {
		k := im.key()
		if st := s.states[k]; st != nil {
			st.lo, st.hi = max(st.lo, s.acked), min(st.hi, s.begun)
			return
		}
		st := &crashState{crashImage: im, lo: s.acked, hi: s.begun, at: at}
		s.states[k] = st
		s.order = append(s.order, st)
	})
}

func (s *stateRecorder) progress(acked, begun int64) {
	s.fs.mu.Lock()
	s.acked, s.begun = acked, begun
	s.fs.mu.Unlock()
}

// viewDir is the data dir, under the recorded root, that a recorded run
// creates: its creation is one of the operations a power cut can undo.
const viewDir = "view"

// recordStates runs txns transactions of the seeded workload on a fresh
// dir (a group of that many shards), through a recFS, checkpointing
// every statesCkptEvery commits, and returns every state a power cut at
// any operation could leave. A failAt past zero makes the log's write of
// that transaction's record a short one: the commit must fail, and after
// a checkpoint pass, which seals the segment the cut-back record was
// left in, the transaction is committed again.
func recordStates(t *testing.T, seed int64, shards int, txns, failAt int64) []*crashState {
	t.Helper()
	root := t.TempDir()
	fs, err := newRecFS(root)
	if err != nil {
		t.Fatal(err)
	}
	s := &stateRecorder{fs: fs, states: map[string]*crashState{}}
	fs.before = s.cut
	relational.FileSystem = fs
	defer func() { relational.FileSystem = pagestore.OS }()
	db, err := openEngine(filepath.Join(root, viewDir), shards, relational.WALOptions{SegmentBytes: statesSegBytes})
	if err != nil {
		t.Fatal(err)
	}
	model, rng := NewModel(), rand.New(rand.NewSource(seed))
	for k := int64(1); k <= txns; k++ {
		s.progress(k-1, k)
		ops := model.TxnOps(rng, k)
		if k == failAt {
			fs.mu.Lock()
			fs.shortWrite = true
			fs.mu.Unlock()
			if err := ApplyTxn(db, ops, k); !errors.Is(err, relational.ErrWALFailed) {
				t.Fatalf("txn %d over a short segment write: %v, want ErrWALFailed", k, err)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after the failed txn %d: %v", k, err)
			}
		}
		if err := ApplyTxn(db, ops, k); err != nil {
			t.Fatalf("txn %d: %v", k, err)
		}
		s.progress(k, k)
		if k%statesCkptEvery == 0 {
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after txn %d: %v", k, err)
			}
		}
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s.cut("end")
	// A segment is extended and fsynced before it takes records, and no
	// record crosses its end, so a commit's fsync has only the record's
	// bytes to make durable.
	if len(fs.grew) > 0 {
		t.Fatalf("%d records were written past their segment's durable size, first %s", len(fs.grew), fs.grew[0])
	}
	return s.order
}

// recoverPrefix opens the view dir under root and returns how many
// workload transactions it holds, after checking that they are a prefix,
// within [lo, hi], and exactly what the shadow model holds after them.
func recoverPrefix(root string, seed int64, shards int, lo, hi int64) (engine, int64, error) {
	db, err := openEngine(filepath.Join(root, viewDir), shards, relational.WALOptions{SegmentBytes: statesSegBytes})
	if err != nil {
		return nil, 0, fmt.Errorf("reopen: %w", err)
	}
	got, err := Dump(db)
	if err != nil {
		db.CloseWAL()
		return nil, 0, err
	}
	n := int64(len(got["ledger"]))
	if n < lo || n > hi {
		db.CloseWAL()
		return nil, 0, fmt.Errorf("recovered %d transactions, want %d to %d", n, lo, hi)
	}
	if want := ReplayModel(seed, n).Dump(); !reflect.DeepEqual(got, want) {
		db.CloseWAL()
		return nil, 0, fmt.Errorf("recovered state != shadow model at %d txns:\n got %v\nwant %v", n, got, want)
	}
	return db, n, nil
}

// checkState reopens a crash state, then gives it a second life: the
// reopened engine commits the next workload transaction through a recFS,
// and the state a power cut right after that commit leaves must reopen
// to the first recovery's transactions plus that one.
func checkState(st *crashState, base string, seed int64, shards int) error {
	first, err := os.MkdirTemp(base, "first")
	if err != nil {
		return err
	}
	defer os.RemoveAll(first)
	if err := st.materialize(first); err != nil {
		return err
	}
	fs, err := newRecFS(first)
	if err != nil {
		return err
	}
	relational.FileSystem = fs
	db, n, err := recoverPrefix(first, seed, shards, st.lo, st.hi)
	relational.FileSystem = pagestore.OS
	if err != nil {
		return err
	}
	model, rng := NewModel(), rand.New(rand.NewSource(seed))
	for k := int64(1); k <= n; k++ {
		model.TxnOps(rng, k)
	}
	err = ApplyTxn(db, model.TxnOps(rng, n+1), n+1)
	fs.mu.Lock()
	im := fs.image(make([]bool, len(fs.pending)), func(ino *inode) []byte { return ino.durable })
	fs.mu.Unlock()
	if cerr := db.CloseWAL(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("second life: commit %d: %w", n+1, err)
	}
	second, err := os.MkdirTemp(base, "second")
	if err != nil {
		return err
	}
	defer os.RemoveAll(second)
	if err := im.materialize(second); err != nil {
		return err
	}
	db, _, err = recoverPrefix(second, seed, shards, n+1, n+1)
	if err != nil {
		return fmt.Errorf("second life, after committing %d to the first recovery's %d: %w", n+1, n, err)
	}
	return db.CloseWAL()
}

// TestCrashStates is the crash oracle, the crash-state enumerator. It
// records a small workload — one database, then a 2-shard group, each
// from the creation of its data dir on — through a recFS, takes at
// every file operation each state a power cut there could leave
// (durable bytes and names, plus bounded subsets of what was not yet
// synced, torn writes included), and reopens every distinct one: it
// must hold the acknowledged prefix, plus at most the commit in flight,
// and commit and recover once more. A kill -9 keeps the page cache, so
// every state it can leave is among these.
func TestCrashStates(t *testing.T) {
	txns := int64(statesTxns)
	if raceEnabled || testing.Short() {
		txns = statesCkptEvery + 2 // one checkpoint past the one at open
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			seed := int64(2024 + shards)
			states := recordStates(t, seed, shards, txns, 0)
			base := t.TempDir()
			for _, st := range states {
				if err := checkState(st, base, seed, shards); err != nil {
					t.Fatalf("crash state before %s (files %v):\n%v", st.at, st.names(), err)
				}
			}
			t.Logf("%d txns: reopened %d distinct crash states, each given a second life", txns, len(states))
		})
	}
}

// TestCrashStatesAfterFailedAppend is TestCrashStates over a run in
// which one append fails short: the log cuts the half-written record
// back, the commit fails, a checkpoint pass rotates the segment and
// retires it, and the transaction commits again into the next segment.
// Neither the cut nor the retirement is synced on its own: the seal's
// fsync makes the cut durable, and a power cut that undoes the
// retirement brings the sealed segment back, which must end at its last
// good record — a torn one there would end the log and lose the
// transactions acknowledged after it.
func TestCrashStatesAfterFailedAppend(t *testing.T) {
	txns, failAt := int64(statesCkptEvery+4), int64(statesCkptEvery+2)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			seed := int64(2024 + shards)
			states := recordStates(t, seed, shards, txns, failAt)
			base := t.TempDir()
			for _, st := range states {
				if err := checkState(st, base, seed, shards); err != nil {
					t.Fatalf("crash state before %s (files %v):\n%v", st.at, st.names(), err)
				}
			}
			t.Logf("%d txns, txn %d's append failed short: reopened %d distinct crash states", txns, failAt, len(states))
		})
	}
}

// TestOversizedRecordOwnsItsSegment: a record larger than SegmentBytes
// is the only record of its segment, which is extended to hold it before
// the write, so its fsync journals no file growing either; and it
// recovers.
func TestOversizedRecordOwnsItsSegment(t *testing.T) {
	root := t.TempDir()
	fs, err := newRecFS(root)
	if err != nil {
		t.Fatal(err)
	}
	relational.FileSystem = fs
	defer func() { relational.FileSystem = pagestore.OS }()
	db, err := openEngine(filepath.Join(root, viewDir), 1, relational.WALOptions{SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	model, rng := NewModel(), rand.New(rand.NewSource(1))
	for k := int64(1); k <= 3; k++ {
		if err := ApplyTxn(db, model.TxnOps(rng, k), k); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if len(fs.grew) > 0 {
		t.Fatalf("%d records were written past their segment's durable size, first %s", len(fs.grew), fs.grew[0])
	}
	if db, _, err = recoverPrefix(root, 1, 1, 3, 3); err != nil {
		t.Fatal(err)
	}
	db.CloseWAL()
}

// names lists the image's files and their sizes, for failure messages.
func (im crashImage) names() string {
	var parts []string
	for n, data := range im.files {
		parts = append(parts, fmt.Sprintf("%s:%d", n, len(data)))
	}
	return strings.Join(parts, " ")
}

// TestDurableOrderGolden pins the file operations of a scripted run — a
// fresh open, three commits, a size rotation, a checkpoint and a close —
// to testdata/durable_order.golden: the order in which the log, the heap
// and the page directory become durable, as kind, file class and size.
// Rewrite it with -update-goldens, and only on purpose.
func TestDurableOrderGolden(t *testing.T) {
	root := t.TempDir()
	fs, err := newRecFS(root)
	if err != nil {
		t.Fatal(err)
	}
	relational.FileSystem = fs
	defer func() { relational.FileSystem = pagestore.OS }()
	db, err := openEngine(filepath.Join(root, viewDir), 1, relational.WALOptions{SegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	model, rng := NewModel(), rand.New(rand.NewSource(1))
	for k := int64(1); k <= 3; k++ {
		if err := ApplyTxn(db, model.TxnOps(rng, k), k); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(fs.Trace(), "\n") + "\n"
	path := filepath.Join("testdata", "durable_order.golden")
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("file operations differ from %s (rewrite with -update-goldens if on purpose):\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
