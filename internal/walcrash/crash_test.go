package walcrash

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/relational"
	"repro/internal/shard"
)

// TestMain re-execs the test binary as the crash child when
// WALCRASH_CHILD is set: the child runs the seeded workload until the
// parent (the normal test run) kills it -9, reopens the WAL directory
// and verifies the committed prefix.
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
// across shards) on the os file system, run the deterministic workload,
// and acknowledge every committed transaction on stdout ("ACK <k>"),
// checkpointing every childCkptEvery commits, until it is killed.
func childMain() {
	die := func(err error) {
		fmt.Fprintf(os.Stderr, "walcrash child: %v\n", err)
		os.Exit(1)
	}
	seed, err := strconv.ParseInt(os.Getenv("WALCRASH_SEED"), 10, 64)
	if err != nil {
		die(fmt.Errorf("bad WALCRASH_SEED: %w", err))
	}
	shards, _ := strconv.Atoi(os.Getenv("WALCRASH_SHARDS"))
	// Every segment carries zeroed slack after its live frames, which
	// recovery must trim without declaring a torn tail.
	db, err := openEngine(os.Getenv("WALCRASH_DIR"), shards, relational.WALOptions{SegmentBytes: childSegBytes})
	if err != nil {
		die(err)
	}
	model := NewModel()
	rng := rand.New(rand.NewSource(seed))
	for k := int64(1); ; k++ {
		if err := ApplyTxn(db, model.TxnOps(rng, k), k); err != nil {
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
}

const (
	childSegBytes  = 512
	childCkptEvery = 16 // commits between the child's checkpoint passes
)

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

// TestCrashExternalKill covers the ungraceful-operator case: the PARENT
// kills the child -9 at an arbitrary moment under load. It runs a real
// process on the real os file system, which TestCrashStates models.
func TestCrashExternalKill(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { externalKill(t, shards) })
	}
}

func externalKill(t *testing.T, shards int) {
	dir := t.TempDir()
	seed := int64(424243)
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "WALCRASH_CHILD=1", "WALCRASH_DIR="+dir,
		"WALCRASH_SEED="+strconv.FormatInt(seed, 10), "WALCRASH_SHARDS="+strconv.Itoa(shards))
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
