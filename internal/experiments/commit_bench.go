package experiments

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/relational"
)

// CommitBench records the stall-free-durability measurement the repo's
// CI tracks (BENCH_commit.json), in three parts:
//
//   - Points: durable-commit throughput of the one commit pipeline at
//     1/8/32 writers, with the fsyncs each point paid. Writers that
//     queue behind an fsync share the next one, so fsyncs < ops at 8+
//     writers is the coalescing CI asserts; the committed history of
//     this file is the baseline to judge ops/s against.
//   - Pauses: Checkpoint() wall time against a 1x and a 10x database
//     with the SAME dirty set. Incremental checkpoints serialize only
//     dirty rows, so the pause ratio should sit near 1, not near 10.
//   - Recovery: cold OpenWAL time over a base image alone vs base plus
//     a delta chain, with the chain length recovery reported.
type CommitBench struct {
	// OpsPerPoint is the number of durable commits measured per series
	// point; MaxProcs records the parallelism available to the run.
	OpsPerPoint int           `json:"ops_per_point"`
	MaxProcs    int           `json:"max_procs"`
	Points      []CommitPoint `json:"points"`

	Pauses []CheckpointPausePoint `json:"checkpoint_pauses"`
	// PauseRatio is pause(10x rows)/pause(1x rows) at the fixed dirty
	// set — near 1 means the pause is O(dirty), not O(database).
	PauseRatio float64 `json:"checkpoint_pause_ratio"`

	Recovery []RecoveryChainPoint `json:"recovery"`
}

// CommitPoint is one writer-count measurement of the commit pipeline.
type CommitPoint struct {
	Writers int `json:"writers"`
	// Ops is the number of commits measured (OpsPerPoint rounded down to
	// a multiple of Writers); Fsyncs is how many WAL fsyncs they paid.
	Ops       int     `json:"ops"`
	NsOp      int64   `json:"ns_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Fsyncs    int64   `json:"fsyncs"`
}

// CheckpointPausePoint is one checkpoint-pause measurement: a database
// of Rows rows with DirtyRows rows written since the last checkpoint.
type CheckpointPausePoint struct {
	Rows      int   `json:"rows"`
	DirtyRows int   `json:"dirty_rows"`
	PauseNs   int64 `json:"pause_ns"`
}

// RecoveryChainPoint is one cold-recovery measurement against a delta
// chain of the given length.
type RecoveryChainPoint struct {
	Rows       int   `json:"rows"`
	ChainLen   int   `json:"delta_chain_len"`
	RecoveryNs int64 `json:"recovery_ns"`
}

// commitBenchSchema is a minimal single-table schema: the benchmark
// measures the commit path, not constraint checking.
func commitBenchSchema() (*relational.Schema, error) {
	tbl, err := relational.NewTableDef("bench", []relational.Column{
		{Name: "id", Type: relational.TypeInt},
		{Name: "val", Type: relational.TypeString},
	}, []string{"id"}, nil)
	if err != nil {
		return nil, err
	}
	return relational.NewSchema(tbl)
}

func openCommitBenchDB(dir string, opts relational.WALOptions) (*relational.Database, error) {
	schema, err := commitBenchSchema()
	if err != nil {
		return nil, err
	}
	db := relational.NewDatabase(schema)
	if _, err := db.OpenWAL(dir, opts); err != nil {
		return nil, err
	}
	return db, nil
}

// commitWriters drives ops conflict-free autocommit inserts across n
// goroutines and returns the wall time.
func commitWriters(db *relational.Database, n, ops int) (time.Duration, error) {
	per := ops / n
	errs := make([]error, n)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w+1) * 10_000_000
			for i := 0; i < per; i++ {
				if _, err := db.Insert("bench", map[string]relational.Value{
					"id":  relational.Int_(base + int64(i)),
					"val": relational.String_("v"),
				}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// RunCommitBench measures commit throughput vs writer count,
// checkpoint pause vs database size, and recovery vs delta-chain
// length, returning the table BENCH_commit.json records.
func RunCommitBench(iters int, maxProcs int) (*CommitBench, error) {
	if iters <= 0 {
		iters = 600
	}
	out := &CommitBench{OpsPerPoint: iters, MaxProcs: maxProcs}
	root, err := os.MkdirTemp("", "commitbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Part 1: throughput and fsyncs per writer count.
	for _, writers := range []int{1, 8, 32} {
		ops := iters - iters%writers
		db, err := openCommitBenchDB(fmt.Sprintf("%s/w%d", root, writers), relational.WALOptions{})
		if err != nil {
			return nil, err
		}
		fsyncsBefore := db.Stats().Fsyncs
		elapsed, err := commitWriters(db, writers, ops)
		if err != nil {
			return nil, err
		}
		fsyncs := db.Stats().Fsyncs - fsyncsBefore
		if err := db.CloseWAL(); err != nil {
			return nil, err
		}
		out.Points = append(out.Points, CommitPoint{
			Writers:   writers,
			Ops:       ops,
			NsOp:      elapsed.Nanoseconds() / int64(ops),
			OpsPerSec: float64(ops) / elapsed.Seconds(),
			Fsyncs:    fsyncs,
		})
	}

	// Part 2: checkpoint pause at 1x and 10x database size with the same
	// fixed dirty set. Each run: bulk-load, checkpoint (absorbs the
	// load), dirty exactly dirtyRows rows, then time the measured pass.
	const baseRows, dirtyRows = 2_000, 100
	for _, rows := range []int{baseRows, 10 * baseRows} {
		dir := fmt.Sprintf("%s/ckpt-%d", root, rows)
		db, err := openCommitBenchDB(dir, relational.WALOptions{})
		if err != nil {
			return nil, err
		}
		if err := bulkInsert(db, 0, rows); err != nil {
			return nil, err
		}
		if err := db.Checkpoint(); err != nil {
			return nil, err
		}
		if err := bulkInsert(db, 50_000_000, dirtyRows); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := db.Checkpoint(); err != nil {
			return nil, err
		}
		pause := time.Since(start).Nanoseconds()
		if err := db.CloseWAL(); err != nil {
			return nil, err
		}
		out.Pauses = append(out.Pauses, CheckpointPausePoint{
			Rows: rows, DirtyRows: dirtyRows, PauseNs: pause,
		})
	}
	if p0 := out.Pauses[0].PauseNs; p0 > 0 {
		out.PauseRatio = float64(out.Pauses[1].PauseNs) / float64(p0)
	}

	// Part 3: cold recovery over a lone base image vs base + delta
	// chain, same row count.
	const recRows, chainLen = 5_000, 8
	for _, deltas := range []int{0, chainLen} {
		dir := fmt.Sprintf("%s/rec-%d", root, deltas)
		// The chain run keeps its limit above chainLen so every measured
		// pass stays a delta; the baseline run disables incremental
		// checkpoints entirely, leaving a lone full base image.
		limit := chainLen + 1
		if deltas == 0 {
			limit = -1
		}
		db, err := openCommitBenchDB(dir, relational.WALOptions{
			CheckpointDeltaLimit: limit,
		})
		if err != nil {
			return nil, err
		}
		if deltas == 0 {
			if err := bulkInsert(db, 0, recRows); err != nil {
				return nil, err
			}
			if err := db.Checkpoint(); err != nil {
				return nil, err
			}
		} else {
			per := recRows / deltas
			for d := 0; d < deltas; d++ {
				if err := bulkInsert(db, int64(d)*int64(per), per); err != nil {
					return nil, err
				}
				if err := db.Checkpoint(); err != nil {
					return nil, err
				}
			}
		}
		if err := db.CloseWAL(); err != nil {
			return nil, err
		}
		schema, err := commitBenchSchema()
		if err != nil {
			return nil, err
		}
		db2 := relational.NewDatabase(schema)
		start := time.Now()
		info, err := db2.OpenWAL(dir, relational.WALOptions{})
		if err != nil {
			return nil, err
		}
		recNs := time.Since(start).Nanoseconds()
		if err := db2.CloseWAL(); err != nil {
			return nil, err
		}
		out.Recovery = append(out.Recovery, RecoveryChainPoint{
			Rows: recRows, ChainLen: info.CheckpointDeltas, RecoveryNs: recNs,
		})
	}
	return out, nil
}

// bulkInsert commits rows one autocommit insert at a time starting at
// the given id base.
func bulkInsert(db *relational.Database, base int64, rows int) error {
	for i := 0; i < rows; i++ {
		if _, err := db.Insert("bench", map[string]relational.Value{
			"id":  relational.Int_(base + int64(i)),
			"val": relational.String_("v"),
		}); err != nil {
			return err
		}
	}
	return nil
}
