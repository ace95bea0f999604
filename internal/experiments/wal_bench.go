package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/bookdb"
	"repro/internal/relational"
	"repro/internal/ufilter"
)

// WALBench records the durability-cost measurement the repo's CI tracks
// (BENCH_wal.json): full-pipeline apply throughput in memory (no log)
// vs with a real fsync-per-group write-ahead log, at 1 and 8 writers on
// the conflict-free keyspace. The single-writer point shows the worst
// case (every commit pays a solo fsync); the 8-writer point shows the
// WAL writer stage amortizing the fsync across concurrent
// transactions — TxnsPerFsync is the coalescing factor, and the
// durable/in-memory ratio should recover toward 1 as it grows. A final
// pass closes the log and times a cold recovery of everything written.
type WALBench struct {
	// OpsPerPoint is the number of applies measured per series point.
	OpsPerPoint int `json:"ops_per_point"`
	// MaxProcs records the parallelism available to the run.
	MaxProcs int        `json:"max_procs"`
	Points   []WALPoint `json:"points"`
	// RecoveryNs is the cold OpenWAL time over everything the 8-writer
	// durable run left behind (checkpoint + live segments).
	RecoveryNs int64 `json:"recovery_ns"`
	// RecoveryReplayedTxns/RecoveryCheckpointRows split what that
	// recovery restored between segment replay and the checkpoint image.
	RecoveryReplayedTxns   int64 `json:"recovery_replayed_txns"`
	RecoveryCheckpointRows int64 `json:"recovery_checkpoint_rows"`
}

// WALPoint is one writer-count measurement of the durability tax.
type WALPoint struct {
	Writers int `json:"writers"`

	MemNsOp      int64   `json:"mem_ns_op"`
	MemOpsPerSec float64 `json:"mem_ops_per_sec"`

	WALNsOp      int64   `json:"wal_ns_op"`
	WALOpsPerSec float64 `json:"wal_ops_per_sec"`

	// DurabilityOverhead is in-memory throughput over durable
	// throughput (>= 1; smaller is better).
	DurabilityOverhead float64 `json:"durability_overhead"`

	// Fsyncs/GroupedTxns report flush coalescing for the durable run:
	// TxnsPerFsync = GroupedTxns/Fsyncs > 1 means concurrent commits
	// actually shared fsyncs.
	Fsyncs       int64   `json:"fsyncs"`
	GroupCommits int64   `json:"group_commits"`
	GroupedTxns  int64   `json:"grouped_txns"`
	TxnsPerFsync float64 `json:"txns_per_fsync"`
	WALBytes     int64   `json:"wal_bytes"`
}

// newWALBenchFilter builds the book pipeline, optionally opening a
// durable WAL under dir before any traffic.
func newWALBenchFilter(dir string) (*ufilter.Filter, *relational.Database, error) {
	db, err := bookdb.NewDatabase(relational.DeleteCascade)
	if err != nil {
		return nil, nil, err
	}
	if dir != "" {
		if _, err := db.OpenWAL(dir, relational.WALOptions{}); err != nil {
			return nil, nil, err
		}
	}
	f, err := ufilter.New(bookdb.ViewQuery, db)
	if err != nil {
		return nil, nil, err
	}
	return f, db, nil
}

// RunWALBench measures the durable-WAL tax against the in-memory
// baseline and returns the table BENCH_wal.json records.
func RunWALBench(iters int, maxProcs int) (*WALBench, error) {
	if iters <= 0 {
		iters = 1000
	}
	out := &WALBench{OpsPerPoint: iters, MaxProcs: maxProcs}
	root, err := os.MkdirTemp("", "walbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var lastDir string
	for _, writers := range []int{1, 8} {
		pt := WALPoint{Writers: writers}
		ops := iters - iters%writers // divide evenly

		// Baseline: in-memory, no log.
		f, _, err := newWALBenchFilter("")
		if err != nil {
			return nil, err
		}
		elapsed, accepted, _, err := runWriters(f, writers, ops,
			func(w, i int) string { return writeBenchInsert(w, i) })
		if err != nil {
			return nil, err
		}
		if accepted != int64(ops) {
			return nil, fmt.Errorf("in-memory series accepted %d/%d", accepted, ops)
		}
		pt.MemNsOp = elapsed.Nanoseconds() / int64(ops)
		pt.MemOpsPerSec = float64(ops) / elapsed.Seconds()

		// Durable: same workload, every commit group fsyncs before
		// acknowledging.
		dir := fmt.Sprintf("%s/w%d", root, writers)
		f, db, err := newWALBenchFilter(dir)
		if err != nil {
			return nil, err
		}
		before := db.Stats()
		elapsed, accepted, _, err = runWriters(f, writers, ops,
			func(w, i int) string { return writeBenchInsert(w, i) })
		if err != nil {
			return nil, err
		}
		if accepted != int64(ops) {
			return nil, fmt.Errorf("durable series accepted %d/%d", accepted, ops)
		}
		pt.WALNsOp = elapsed.Nanoseconds() / int64(ops)
		pt.WALOpsPerSec = float64(ops) / elapsed.Seconds()
		if pt.WALOpsPerSec > 0 {
			pt.DurabilityOverhead = pt.MemOpsPerSec / pt.WALOpsPerSec
		}
		st := db.Stats()
		pt.Fsyncs = st.Fsyncs - before.Fsyncs
		pt.GroupCommits = st.GroupCommits - before.GroupCommits
		pt.GroupedTxns = st.GroupedTxns - before.GroupedTxns
		if pt.Fsyncs > 0 {
			pt.TxnsPerFsync = float64(pt.GroupedTxns) / float64(pt.Fsyncs)
		}
		pt.WALBytes = st.WALBytes
		if err := db.CloseWAL(); err != nil {
			return nil, err
		}
		lastDir = dir
		out.Points = append(out.Points, pt)
	}

	// Cold recovery over the 8-writer run's directory.
	db, err := bookdb.NewDatabase(relational.DeleteCascade)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	info, err := db.OpenWAL(lastDir, relational.WALOptions{})
	if err != nil {
		return nil, err
	}
	out.RecoveryNs = time.Since(start).Nanoseconds()
	out.RecoveryReplayedTxns = int64(info.ReplayedTxns)
	out.RecoveryCheckpointRows = int64(info.CheckpointRows)
	return out, db.CloseWAL()
}
