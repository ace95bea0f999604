package walcrash

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/pagestore"
	"repro/internal/relational"
	"repro/internal/shard"
)

// TestMain re-execs the test binary as the crash child when
// WALCRASH_CHILD is set: the child runs the seeded workload with a crash
// fault armed and dies by SIGKILL mid-durability-path; the parent
// (the normal test run) reaps it, reopens the WAL directory and
// verifies the committed prefix.
func TestMain(m *testing.M) {
	if os.Getenv("WALCRASH_CHILD") == "1" {
		childMain()
		return
	}
	os.Exit(m.Run())
}

// engine is the storage surface the harness drives, plus the checkpoint
// pass a database and a shard group both run.
type engine interface {
	relational.Engine
	Checkpoint() error
}

// openEngine opens the directory as a plain database, or as a shard
// group when shards > 1 — recovering whatever it holds.
func openEngine(dir string, shards int, opts relational.WALOptions) (engine, error) {
	schema, err := Schema()
	if err != nil {
		return nil, err
	}
	if shards > 1 {
		g, _, err := shard.New(schema, shards, shard.Options{Dir: dir, WAL: opts})
		return g, err
	}
	db := relational.NewDatabase(schema)
	_, err = db.OpenWAL(dir, opts)
	return db, err
}

// childMain is the crash child: open the WAL directory (a shard group
// when WALCRASH_SHARDS says so: most workload transactions then commit
// across shards) through a FaultFS armed from RELATIONAL_FAULTS, run the
// deterministic workload, and acknowledge every committed transaction
// on stdout ("ACK <k>"), checkpointing every childCkptEvery commits. A
// crash fault SIGKILLs the process somewhere in the middle; reaching the
// end prints DONE and exits 0 (which the crash matrix treats as "the
// fault never fired" — a test failure).
func childMain() {
	die := func(err error) {
		fmt.Fprintf(os.Stderr, "walcrash child: %v\n", err)
		os.Exit(1)
	}
	dir := os.Getenv("WALCRASH_DIR")
	seed, err := strconv.ParseInt(os.Getenv("WALCRASH_SEED"), 10, 64)
	if err != nil {
		die(fmt.Errorf("bad WALCRASH_SEED: %w", err))
	}
	txns, err := strconv.ParseInt(os.Getenv("WALCRASH_TXNS"), 10, 64)
	if err != nil {
		die(fmt.Errorf("bad WALCRASH_TXNS: %w", err))
	}
	segBytes, _ := strconv.ParseInt(os.Getenv("WALCRASH_SEGBYTES"), 10, 64)
	shards, _ := strconv.Atoi(os.Getenv("WALCRASH_SHARDS"))

	// Arm before OpenWAL so the initial-checkpoint and rotation paths
	// are crashable too, not just steady-state commits.
	faults := &pagestore.FaultFS{}
	if err := faults.Arm(os.Getenv("RELATIONAL_FAULTS")); err != nil {
		die(err)
	}
	relational.FileSystem = faults
	// Every segment carries zeroed slack after its live frames, which
	// recovery must trim without declaring a torn tail.
	db, err := openEngine(dir, shards, relational.WALOptions{SegmentBytes: segBytes})
	if err != nil {
		die(err)
	}
	model := NewModel()
	rng := rand.New(rand.NewSource(seed))
	for k := int64(1); k <= txns; k++ {
		ops := model.TxnOps(rng, k)
		if err := ApplyTxn(db, ops, k); err != nil {
			die(fmt.Errorf("txn %d: %w", k, err))
		}
		// One small write syscall per commit: everything acknowledged
		// here was durable before Commit returned.
		fmt.Fprintf(os.Stdout, "ACK %d\n", k)
		if k%childCkptEvery == 0 {
			if err := db.Checkpoint(); err != nil {
				die(fmt.Errorf("checkpoint after txn %d: %w", k, err))
			}
		}
	}
	fmt.Fprintln(os.Stdout, "DONE")
	if err := db.CloseWAL(); err != nil {
		die(err)
	}
	os.Exit(0)
}

const (
	childTxns     = 150
	childSegBytes = 512
	// childCkptEvery commits a checkpoint pass runs: ten passes in the
	// child's workload, the initial one at open included — enough for
	// every checkpoint fault's highest hit count in the crash matrix.
	childCkptEvery = 16
)

// childCmd builds the crash child's command line: txns transactions of
// the seeded workload against dir, opened with that many shards, under
// the fault spec faults.
func childCmd(dir string, seed int64, txns, shards int, faults string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"WALCRASH_CHILD=1",
		"WALCRASH_DIR="+dir,
		"WALCRASH_SEED="+strconv.FormatInt(seed, 10),
		"WALCRASH_TXNS="+strconv.Itoa(txns),
		"WALCRASH_SEGBYTES="+strconv.Itoa(childSegBytes),
		"WALCRASH_SHARDS="+strconv.Itoa(shards),
		"RELATIONAL_FAULTS="+faults,
	)
	return cmd
}

// runCrashChild launches the child against dir with the given fault
// spec and returns the last transaction it acknowledged plus how it
// exited.
func runCrashChild(t *testing.T, dir string, seed int64, shards int, faults string) (lastAck int64, exitedClean bool) {
	t.Helper()
	cmd := childCmd(dir, seed, childTxns, shards, faults)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if k, ok := strings.CutPrefix(line, "ACK "); ok {
			n, err := strconv.ParseInt(k, 10, 64)
			if err != nil {
				t.Fatalf("bad ACK line %q", line)
			}
			lastAck = n
		}
	}
	err = cmd.Wait()
	if err == nil {
		return lastAck, true
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("child wait: %v (stderr: %s)", err, stderr.String())
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("child died abnormally (not SIGKILL): %v (stderr: %s)", err, stderr.String())
	}
	return lastAck, false
}

// verifyRecovery reopens the WAL directory and checks the recovery
// contract: the ledger holds exactly transactions 1..N for some N with
// lastAck <= N <= lastAck+1 (no acknowledged commit lost; at most the
// one in-flight commit surfaces unacknowledged), the full state equals
// the shadow model replayed to N, integrity invariants hold, and the
// recovered database accepts new commits. On a shard group the model
// comparison is also the cross-shard atomicity check: a transaction
// recovered on one shard and not the other leaves a ledger row without
// its rows, or rows without their ledger row.
func verifyRecovery(t *testing.T, dir string, seed, lastAck int64, shards int) {
	t.Helper()
	db, err := openEngine(dir, shards, relational.WALOptions{SegmentBytes: childSegBytes})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer db.CloseWAL()

	got, err := Dump(db)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(got["ledger"]))
	for k := int64(1); k <= n; k++ {
		if _, ok := got["ledger"][k]; !ok {
			t.Fatalf("committed set is not a prefix: %d ledger rows but txn %d missing", n, k)
		}
	}
	if n < lastAck {
		t.Fatalf("LOST acknowledged commit: child ACKed %d, recovery found %d", lastAck, n)
	}
	if n > lastAck+1 {
		t.Fatalf("recovered %d txns but only %d were acknowledged (+1 in-flight allowed)", n, lastAck)
	}
	want := ReplayModel(seed, n).Dump()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state != shadow model at %d txns:\n got %v\nwant %v", n, got, want)
	}
	// Referential integrity: every child points at a live parent.
	parents := map[int64]bool{}
	if err := db.Scan("parent", func(r *relational.Row) bool {
		parents[r.Values[0].Int] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Scan("child", func(r *relational.Row) bool {
		if !parents[r.Values[1].Int] {
			t.Errorf("orphan child %d -> parent %d", r.Values[0].Int, r.Values[1].Int)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// Constraint machinery survived recovery: duplicates still rejected,
	// fresh commits still accepted.
	if n > 0 {
		txn := db.BeginTxn()
		_, err := txn.Insert("ledger", map[string]relational.Value{
			"txn": relational.Int_(1),
		})
		txn.Rollback()
		if !errors.Is(err, relational.ErrPrimaryKey) {
			t.Fatalf("duplicate ledger txn after recovery: %v", err)
		}
	}
	txn := db.BeginTxn()
	if _, err := txn.Insert("ledger", map[string]relational.Value{
		"txn": relational.Int_(1 << 40),
	}); err != nil {
		t.Fatalf("post-recovery insert failed: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("post-recovery commit failed: %v", err)
	}
}

// crashCase is one child of the crash matrix: a fault spec and the name
// of its subtest. Rows named for a retired failpoint run the spec that
// replaced it (CHANGES.md keeps the ledger); the others are named by
// their spec. A segment's fsyncs include the extend fsync of every
// segment opened and the seal fsync of every rotation: opening a fresh
// dir issues three, so the first commit's fsync is the fourth. A kill -9
// keeps the page cache, so dying right after a record's write leaves
// what dying right after its fsync does; the wal.fsync.after rows count
// writes, so their hit is always a commit's.
type crashCase struct{ name, fault string }

// crashMatrix is every op kind × file class the workload issues, each
// in crash mode at an early and a later hit; under -race (or -short)
// only the "@1" rows run — the reduced CI matrix.
var crashMatrix = []crashCase{
	{"wal.append.before@1", "write:segment=crash@1"},
	{"wal.append.before@20", "write:segment=crash@20"},
	{"wal.append.partial@1", "write:segment=tear@1"},
	{"wal.append.partial@20", "write:segment=tear@20"},
	{"wal.fsync.before@1", "sync:segment=crash@4"},
	{"wal.fsync.before@20", "sync:segment=crash@20"},
	{"wal.fsync.after@1", "write:segment=crash-after@1"},
	{"wal.fsync.after@20", "write:segment=crash-after@20"},
	{"pipeline.publish.before@1", "sync:segment=crash-after@4"},
	{"pipeline.publish.before@20", "sync:segment=crash-after@20"},
	{"pipeline.stamp.after@1", "pipeline.stamp.after=crash@1"},
	{"pipeline.stamp.after@20", "pipeline.stamp.after=crash@20"},
	{"wal.rotate.seal@1", "open:segment=crash@2"},
	{"wal.rotate.seal@4", "open:segment=crash@5"},
	{"wal.rotate.open@1", "open:segment=crash-after@2"},
	{"wal.rotate.open@4", "open:segment=crash-after@5"},
	{"checkpoint.write@1", "write:heap=crash@1"},
	{"checkpoint.write@3", "write:heap=crash@3"},
	{"pagestore.write@1", "write:heap=crash@2"},
	{"pagestore.write@20", "write:heap=crash@20"},
	{"pagestore.directory@1", "open:pagedir=crash@1"},
	{"pagestore.directory@5", "open:pagedir=crash@5"},
	{"checkpoint.rename@1", "rename:pagedir=crash@1"},
	{"checkpoint.rename@3", "rename:pagedir=crash@3"},
	{"checkpoint.truncate@1", "remove:segment=crash@1"},
	{"checkpoint.truncate@3", "remove:segment=crash@3"},
	{"truncate:segment=crash@1", "truncate:segment=crash@1"},
	{"truncate:segment=crash@4", "truncate:segment=crash@4"},
	{"sync:heap=crash@1", "sync:heap=crash@1"},
	{"sync:heap=crash@3", "sync:heap=crash@3"},
	{"write:pagedir=crash@1", "write:pagedir=crash@1"},
	{"write:pagedir=crash@5", "write:pagedir=crash@5"},
	{"sync:pagedir=crash@1", "sync:pagedir=crash@1"},
	{"sync:pagedir=crash@5", "sync:pagedir=crash@5"},
	{"syncdir:dir=crash@1", "syncdir:dir=crash@1"},
	{"syncdir:dir=crash@20", "syncdir:dir=crash@20"},
	{"mkdir:dir=crash@1", "mkdir:dir=crash@1"},
	{"open:heap=crash@1", "open:heap=crash@1"},
	{"remove:pagedir=crash@1", "remove:pagedir=crash@1"},
	{"open:format=crash@1", "open:format=crash@1"},
	{"write:format=crash@1", "write:format=crash@1"},
	{"sync:format=crash@1", "sync:format=crash@1"},
	{"rename:format=crash@1", "rename:format=crash@1"},
}

// runMatrix runs each case in its own child on a group of that many
// shards, reopens what the kill left and checks it against the shadow
// model; check, if set, runs after that with the last acknowledged
// transaction.
func runMatrix(t *testing.T, cases []crashCase, shards int, seedBase int64, check func(t *testing.T, c crashCase, seed, lastAck int64)) {
	reduced := raceEnabled || testing.Short()
	var points []string // the distinct names before "@", in order
	for _, c := range cases {
		point, at, _ := strings.Cut(c.name, "@")
		if len(points) == 0 || points[len(points)-1] != point {
			points = append(points, point)
		}
		if reduced && at != "1" {
			continue
		}
		hit, _ := strconv.Atoi(at)
		seed := seedBase*int64(len(points)) + int64(hit)
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			lastAck, clean := runCrashChild(t, dir, seed, shards, c.fault)
			if clean {
				t.Fatalf("fault %s never fired: child finished all %d txns", c.fault, childTxns)
			}
			verifyRecovery(t, dir, seed, lastAck, shards)
			if check != nil {
				check(t, c, seed, lastAck)
			}
		})
	}
}

// TestCrashAtEveryFailpoint is the acceptance harness: for every op kind
// × file class in crashMatrix, run the workload in a child process that
// SIGKILLs itself at that operation, reopen, and assert exactly the
// committed prefix is visible.
func TestCrashAtEveryFailpoint(t *testing.T) {
	runMatrix(t, crashMatrix, 1, 7919, nil)
}

// TestCrashCrossShard is the same harness over a 2-shard group, where
// most workload transactions commit across shards — each as ONE record
// of the group's one log. The child dies with such a record half written
// (write:segment=tear) and written but published on no shard
// (write:segment=crash-after) — for those two the test checks that the
// commit in flight was a cross-shard one — and at the log's other
// commit, rotation and checkpoint operations. The parent asserts the
// committed prefix against the shadow model, which no torn cross-shard
// transaction can satisfy.
func TestCrashCrossShard(t *testing.T) {
	var cases []crashCase
	for _, c := range crashMatrix {
		switch point, _, _ := strings.Cut(c.name, "@"); point {
		case "wal.append.before", "wal.append.partial", "wal.fsync.before", "wal.fsync.after",
			"pipeline.publish.before", "wal.rotate.seal", "checkpoint.truncate":
			cases = append(cases, c)
		}
	}
	runMatrix(t, cases, 2, 104729, func(t *testing.T, c crashCase, seed, lastAck int64) {
		if strings.HasPrefix(c.name, "wal.append.partial") || strings.HasPrefix(c.name, "wal.fsync.after") {
			if !crossShardTxn(t, seed, lastAck+1, 2) {
				t.Fatalf("%s struck transaction %d, which commits on one shard", c.fault, lastAck+1)
			}
		}
	})
}

// crossShardTxn reports whether transaction k of the seeded workload
// commits on more than one shard of an in-memory group of that width.
func crossShardTxn(t *testing.T, seed, k int64, shards int) bool {
	t.Helper()
	schema, err := Schema()
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := shard.New(schema, shards, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	model, rng := NewModel(), rand.New(rand.NewSource(seed))
	var before []relational.ShardStat
	for i := int64(1); i <= k; i++ {
		before = g.ShardStats()
		if err := ApplyTxn(g, model.TxnOps(rng, i), i); err != nil {
			t.Fatal(err)
		}
	}
	moved := 0
	for s, st := range g.ShardStats() {
		if st.CommitSeq > before[s].CommitSeq {
			moved++
		}
	}
	return moved > 1
}

// TestCrashExternalKill covers the ungraceful-operator case: no
// fault, the PARENT kills the child -9 at an arbitrary moment under
// load.
func TestCrashExternalKill(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { externalKill(t, shards) })
	}
}

func externalKill(t *testing.T, shards int) {
	dir := t.TempDir()
	seed := int64(424243)
	// Far more transactions than it will live to commit.
	cmd := childCmd(dir, seed, 1000000, shards, "")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill once the workload is demonstrably mid-flight.
	var lastAck int64
	killed := false
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if k, ok := strings.CutPrefix(sc.Text(), "ACK "); ok {
			n, _ := strconv.ParseInt(k, 10, 64)
			lastAck = n
			if n >= 60 && !killed {
				killed = true
				_ = cmd.Process.Kill() // SIGKILL; keep draining buffered ACKs
			}
		}
	}
	_ = cmd.Wait()
	if !killed {
		t.Fatal("child exited before the kill point")
	}
	verifyRecovery(t, dir, seed, lastAck, shards)
}

// TestRecoveryPropertyRandomSeeds is the crash-free half of the
// property suite: for several seeds, run the workload in-process with
// aggressive rotation and a checkpoint every childCkptEvery commits,
// close, reopen, and require the
// recovered state to equal the shadow model exactly.
func TestRecoveryPropertyRandomSeeds(t *testing.T) {
	// The last seed varies run to run to keep the space explored; its
	// subtest has a fixed name (the seed is logged), so the set of test
	// names is the same on every run.
	seeds := []int64{1, 1337, 15204, 94810, 3044, 38755, 58334, 83287, 76191, 47452, 98759, 53640, 24445, 31054, 73124, 77700, 71857, time.Now().UnixNano() % 100000}
	if raceEnabled || testing.Short() {
		seeds = seeds[:1]
	}
	for i, seed := range seeds {
		name := fmt.Sprintf("seed%d", seed)
		if i == len(seeds)-1 && len(seeds) > 1 {
			name = "seed-varying"
		}
		t.Run(name, func(t *testing.T) {
			t.Logf("seed %d", seed)
			dir := t.TempDir()
			schema, err := Schema()
			if err != nil {
				t.Fatal(err)
			}
			db := relational.NewDatabase(schema)
			if _, err := db.OpenWAL(dir, relational.WALOptions{SegmentBytes: childSegBytes}); err != nil {
				t.Fatal(err)
			}
			model := NewModel()
			rng := rand.New(rand.NewSource(seed))
			const n = 300
			for k := int64(1); k <= n; k++ {
				if err := ApplyTxn(db, model.TxnOps(rng, k), k); err != nil {
					t.Fatalf("txn %d: %v", k, err)
				}
				if k%childCkptEvery == 0 {
					if err := db.Checkpoint(); err != nil {
						t.Fatalf("checkpoint after txn %d: %v", k, err)
					}
				}
			}
			if err := db.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			db2 := relational.NewDatabase(schema)
			if _, err := db2.OpenWAL(dir, relational.WALOptions{}); err != nil {
				t.Fatal(err)
			}
			defer db2.CloseWAL()
			got, err := Dump(db2)
			if err != nil {
				t.Fatal(err)
			}
			if want := ReplayModel(seed, n).Dump(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: recovered state != model:\n got %v\nwant %v", seed, got, want)
			}
		})
	}
}
