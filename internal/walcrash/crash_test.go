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

	"repro/internal/relational"
	"repro/internal/shard"
)

// TestMain re-execs the test binary as the crash child when
// WALCRASH_CHILD is set: the child runs the seeded workload with crash
// failpoints armed and dies by SIGKILL mid-durability-path; the parent
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
// across shards), arm failpoints
// from the environment, run the deterministic workload, and acknowledge
// every committed transaction on stdout ("ACK <k>"), checkpointing every
// childCkptEvery commits. A crash-mode
// failpoint SIGKILLs the process somewhere in the middle; reaching the
// end prints DONE and exits 0 (which the failpoint matrix treats as
// "failpoint never fired" — a test failure).
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
	if err := relational.EnableFailpointsFromEnv(); err != nil {
		die(err)
	}
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
	// every checkpoint failpoint's highest hit count in failpointHits.
	childCkptEvery = 16
)

// childCmd builds the crash child's command line: txns transactions of
// the seeded workload against dir, opened with that many shards.
func childCmd(dir string, seed int64, txns, shards int, failpoints string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"WALCRASH_CHILD=1",
		"WALCRASH_DIR="+dir,
		"WALCRASH_SEED="+strconv.FormatInt(seed, 10),
		"WALCRASH_TXNS="+strconv.Itoa(txns),
		"WALCRASH_SEGBYTES="+strconv.Itoa(childSegBytes),
		"WALCRASH_SHARDS="+strconv.Itoa(shards),
		"RELATIONAL_FAILPOINTS="+failpoints,
	)
	return cmd
}

// runCrashChild launches the child against dir with the given failpoint
// spec and returns the last transaction it acknowledged plus how it
// exited.
func runCrashChild(t *testing.T, dir string, seed int64, shards int, failpoints string) (lastAck int64, exitedClean bool) {
	t.Helper()
	cmd := childCmd(dir, seed, childTxns, shards, failpoints)
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

// failpointHits picks the @N hit counts exercised per failpoint: early
// and mid-workload for the per-commit points, scaled down for the
// rarer rotation/checkpoint paths. Under -race (or -short) only the
// first hit runs — the reduced CI matrix.
func failpointHits(fp string, reduced bool) []int {
	var hits []int
	switch {
	case fp == "pagestore.directory":
		// One directory replace per checkpoint install.
		hits = []int{1, 5}
	case strings.HasPrefix(fp, "checkpoint."):
		hits = []int{1, 3}
	case strings.HasPrefix(fp, "wal.rotate."):
		hits = []int{1, 4}
	default:
		hits = []int{1, 20}
	}
	if reduced {
		return hits[:1]
	}
	return hits
}

// TestCrashAtEveryFailpoint is the acceptance harness: for every
// registered failpoint, run the workload in a child process that
// SIGKILLs itself at that point, reopen, and assert exactly the
// committed prefix is visible.
func TestCrashAtEveryFailpoint(t *testing.T) {
	reduced := raceEnabled || testing.Short()
	for i, fp := range relational.FailpointNames() {
		for _, hit := range failpointHits(fp, reduced) {
			name := fmt.Sprintf("%s@%d", fp, hit)
			seed := int64(7919*int64(i+1) + int64(hit))
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				lastAck, clean := runCrashChild(t, dir, seed, 1,
					fmt.Sprintf("%s=crash@%d", fp, hit))
				if clean {
					t.Fatalf("failpoint %s never fired: child finished all %d txns", name, childTxns)
				}
				verifyRecovery(t, dir, seed, lastAck, 1)
			})
		}
	}
}

// TestCrashCrossShard is the same harness over a 2-shard group, where
// most workload transactions commit across shards — each as ONE record
// of the group's one log. The child dies with such a record half written
// (wal.append.partial) and written and fsynced but published on no shard
// (wal.fsync.after) — for those two the test checks that the commit in
// flight was a cross-shard one — and at the log's other commit, rotation
// and checkpoint failpoints. The parent asserts the committed prefix
// against the shadow model, which no torn cross-shard transaction can
// satisfy.
func TestCrashCrossShard(t *testing.T) {
	reduced := raceEnabled || testing.Short()
	fps := []string{
		relational.FpWALAppendBefore, relational.FpWALAppendPartial,
		relational.FpWALFsyncBefore, relational.FpWALFsyncAfter, relational.FpPipelinePublishBefore,
		relational.FpWALRotateSeal, relational.FpCheckpointTruncate,
	}
	for i, fp := range fps {
		for _, hit := range failpointHits(fp, reduced) {
			name := fmt.Sprintf("%s@%d", fp, hit)
			seed := int64(104729*int64(i+1) + int64(hit))
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				lastAck, clean := runCrashChild(t, dir, seed, 2,
					fmt.Sprintf("%s=crash@%d", fp, hit))
				if clean {
					t.Fatalf("failpoint %s never fired: child finished all %d txns", name, childTxns)
				}
				verifyRecovery(t, dir, seed, lastAck, 2)
				if (fp == relational.FpWALAppendPartial || fp == relational.FpWALFsyncAfter) && !crossShardTxn(t, seed, lastAck+1, 2) {
					t.Fatalf("%s struck transaction %d, which commits on one shard", name, lastAck+1)
				}
			})
		}
	}
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
// failpoint, the PARENT kills the child -9 at an arbitrary moment under
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
