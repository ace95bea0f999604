package experiments

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bookdb"
	"repro/internal/relational"
	"repro/internal/ufilter"
)

// WriteBench records the parallel-write-path measurement the repo's CI
// tracks (BENCH_write.json): full-pipeline apply throughput at 1/2/4/8
// writer goroutines, on a conflict-free keyspace (every apply inserts
// a distinct review — the disjoint-rows case the paper's pipeline
// makes the common one) and on a deliberately pathological
// high-conflict keyspace (every apply rewrites the same row, so
// first-updater-wins conflicts and retries dominate). Under the MVCC
// write path the conflict-free series should scale with cores — the
// old per-view writer mutex pinned it to one — while the high-conflict
// series must stay correct: every apply either commits whole or
// reports ErrWriteConflict, never a torn state.
type WriteBench struct {
	// OpsPerPoint is the number of applies measured per series point.
	OpsPerPoint int          `json:"ops_per_point"`
	Points      []WritePoint `json:"points"`
	// ConflictFreeSpeedup8x is the conflict-free throughput at 8
	// writers over the single-writer figure — the headline number (>= 2
	// expected on multicore hardware; bounded by GOMAXPROCS).
	ConflictFreeSpeedup8x float64 `json:"conflict_free_speedup_8x"`
	// MaxProcs records the parallelism available to the run, so the
	// speedup can be judged against the hardware.
	MaxProcs int `json:"max_procs"`
}

// WritePoint is one writer-count measurement.
type WritePoint struct {
	Writers int `json:"writers"`

	ConflictFreeNsOp      int64   `json:"conflict_free_ns_op"`
	ConflictFreeOpsPerSec float64 `json:"conflict_free_ops_per_sec"`

	HighConflictNsOp      int64   `json:"high_conflict_ns_op"`
	HighConflictOpsPerSec float64 `json:"high_conflict_ops_per_sec"`
	// Accepted/Conflict409 split the high-conflict applies: committed
	// after retries vs retries exhausted (the gateway's 409 case).
	Accepted    int64 `json:"accepted"`
	Conflict409 int64 `json:"conflict_409"`
	// Conflicts/Retries are the engine's counters for the
	// high-conflict run.
	Conflicts int64 `json:"conflicts"`
	Retries   int64 `json:"retries"`
	// GroupCommits/GroupedTxns are the engine's commit-group counters
	// over the conflict-free run. The run is in-memory, where every
	// commit is its own group, so the two are equal; flush sharing only
	// exists with a WAL (see BENCH_wal.json / BENCH_commit.json).
	GroupCommits int64 `json:"group_commits"`
	GroupedTxns  int64 `json:"grouped_txns"`
}

func writeBenchInsert(writer, i int) string {
	return fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book { INSERT <review><reviewid>w%d-%d</reviewid><comment>bench</comment></review> }`, writer, i)
}

func writeBenchReplace(i int) string {
	return fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book { REPLACE $book/price WITH <price>%d.25</price> }`, 10+i%39)
}

func newWriteBenchFilter() (*ufilter.Filter, error) {
	db, err := bookdb.NewDatabase(relational.DeleteCascade)
	if err != nil {
		return nil, err
	}
	return ufilter.New(bookdb.ViewQuery, db)
}

// runWriters splits ops applies across n goroutines, each generating
// its own update text through gen(writer, i), and returns the wall
// time plus how many applies were accepted and how many surfaced
// ErrWriteConflict (any other failure is returned as an error).
func runWriters(f *ufilter.Filter, n, ops int, gen func(writer, i int) string) (time.Duration, int64, int64, error) {
	var wg sync.WaitGroup
	var accepted, conflicted atomic.Int64
	var firstErr atomic.Value
	perWriter := ops / n
	start := time.Now()
	for w := 0; w < n; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				res, err := f.Apply(gen(w, i))
				switch {
				case err == nil && res.Accepted:
					accepted.Add(1)
				case err != nil && errors.Is(err, relational.ErrWriteConflict):
					conflicted.Add(1)
				case err != nil:
					firstErr.Store(err)
					return
				default:
					firstErr.Store(fmt.Errorf("apply rejected: %s", res.Reason))
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, 0, 0, err
	}
	return elapsed, accepted.Load(), conflicted.Load(), nil
}

// RunWriteBench measures apply throughput across writer counts and
// returns the table BENCH_write.json records.
func RunWriteBench(iters int, maxProcs int) (*WriteBench, error) {
	if iters <= 0 {
		iters = 2000
	}
	out := &WriteBench{OpsPerPoint: iters, MaxProcs: maxProcs}
	var base float64
	for _, writers := range []int{1, 2, 4, 8} {
		pt := WritePoint{Writers: writers}
		ops := iters - iters%writers // divide evenly

		// Conflict-free: distinct review keys, same template (the plan
		// cache answers after the first apply).
		f, err := newWriteBenchFilter()
		if err != nil {
			return nil, err
		}
		if _, _, _, err := runWriters(f, 1, writers, func(w, i int) string {
			return fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book { INSERT <review><reviewid>warm-%d</reviewid><comment>bench</comment></review> }`, i)
		}); err != nil {
			return nil, err
		}
		before := f.Stats().Database
		elapsed, accepted, conflicted, err := runWriters(f, writers, ops,
			func(w, i int) string { return writeBenchInsert(w, i) })
		if err != nil {
			return nil, err
		}
		if conflicted != 0 {
			return nil, fmt.Errorf("conflict-free series hit %d conflicts", conflicted)
		}
		if accepted != int64(ops) {
			return nil, fmt.Errorf("conflict-free series accepted %d/%d", accepted, ops)
		}
		pt.ConflictFreeNsOp = elapsed.Nanoseconds() / int64(ops)
		pt.ConflictFreeOpsPerSec = float64(ops) / elapsed.Seconds()
		after := f.Stats().Database
		pt.GroupCommits = after.GroupCommits - before.GroupCommits
		pt.GroupedTxns = after.GroupedTxns - before.GroupedTxns

		// High-conflict: every apply rewrites the same row.
		f, err = newWriteBenchFilter()
		if err != nil {
			return nil, err
		}
		elapsed, accepted, conflicted, err = runWriters(f, writers, ops,
			func(w, i int) string { return writeBenchReplace(w*iters + i) })
		if err != nil {
			return nil, err
		}
		if accepted+conflicted != int64(ops) {
			return nil, fmt.Errorf("high-conflict series lost applies: %d accepted + %d conflicted != %d",
				accepted, conflicted, ops)
		}
		pt.HighConflictNsOp = elapsed.Nanoseconds() / int64(ops)
		pt.HighConflictOpsPerSec = float64(ops) / elapsed.Seconds()
		pt.Accepted = accepted
		pt.Conflict409 = conflicted
		st := f.Stats()
		pt.Conflicts = st.Database.Conflicts
		pt.Retries = st.Write.Retries

		if writers == 1 {
			base = pt.ConflictFreeOpsPerSec
		}
		if writers == 8 && base > 0 {
			out.ConflictFreeSpeedup8x = pt.ConflictFreeOpsPerSec / base
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}
