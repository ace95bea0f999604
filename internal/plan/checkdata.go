package plan

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/relational"
	"repro/internal/sqlexec"
	"repro/internal/xqparse"
)

// The snapshot-pinned check path: Steps 1+2 plus the read-only half of
// Step 3 — the update-context existence probes of Section 6.1 and the
// shared-part existence/consistency probes of CondSharedPartsExist —
// evaluated against an immutable database snapshot. Nothing here takes
// the writer lock, materializes temporary tables or touches the
// transaction engine, so any number of data-level checks run fully
// concurrently with an in-flight Apply/ApplyBatch and with each other;
// a long batch apply cannot stall them. What this path cannot decide
// are the write-dependent conflicts (uniqueness of the actual insert,
// cascade effects), which remain Step 3 work inside the serialized
// apply — exactly the lightweight/heavyweight split the paper's
// architecture argues for.

// Snapshot pins an immutable point-in-time view of the executor's
// database. Close it when done so the version reclaimer can advance.
// Over a shard group the snapshot is a consistent vector: every shard
// is pinned under a latch that excludes cross-shard commits, so a
// cross-shard transaction is visible on all its shards or none.
func (e *Executor) Snapshot() relational.Snap {
	return e.Exec.DB.OpenSnapshot()
}

// CheckData runs Steps 1+2 and the read-only data probes of Step 3
// against a freshly pinned snapshot. It never blocks behind an apply.
func (e *Executor) CheckData(updateText string) (*Result, error) {
	snap := e.Snapshot()
	defer snap.Close()
	return e.CheckDataAt(snap, updateText)
}

// CheckDataAt is CheckData against a caller-pinned Reader (typically a
// *relational.Snapshot, so several checks observe one point-in-time
// state; passing the live database degrades to read-committed probes).
func (e *Executor) CheckDataAt(rd sqlexec.Reader, updateText string) (*Result, error) {
	u, err := xqparse.ParseUpdate(updateText)
	if err != nil {
		return nil, err
	}
	return e.checkDataParsed(rd, u)
}

// checkDataParsed layers the read-only probes over the schema verdict.
// The returned Result is the caller's copy: probe SQL is appended to
// Probes and a failed probe downgrades Accepted with RejectedAt =
// StepData.
func (e *Executor) checkDataParsed(rd sqlexec.Reader, u *xqparse.UpdateQuery) (*Result, error) {
	res, p, b, err := e.checkCached(u, "", nil)
	if err != nil || !res.Accepted {
		return res, err
	}
	if p == nil {
		// Cache disabled: compile a plan privately — compilation is
		// read-only and concurrency-safe — so this path still carries
		// the per-op artifacts, in particular the shared-part checks an
		// insert's verdict depends on. Without them CheckData would
		// accept inserts that Apply then rejects at StepData.
		if p, err = e.compile(u, true); err != nil {
			return nil, err
		}
		if _, b, err = e.bindParsed(p, u); err != nil {
			return nil, err
		}
	}
	args := probeArgs(p.Ops, b.preds)
	for i := range p.Resolved.Ops {
		ro, po := &p.Resolved.Ops[i], &p.Ops[i]
		reject, err := e.probeContextOn(rd, ro, b.preds, po, args, res)
		if err != nil {
			return nil, err
		}
		// A fragment without the key of a shared relation is what Apply
		// rejects at translation; here it only means the shared part
		// cannot be probed.
		if reject == "" && po.insert != nil && po.insert.checkSharedKeys(b.content) == nil {
			reject, err = e.runSharedChecksOn(rd, po.SharedChecks, b.content, res)
			if err != nil {
				return nil, err
			}
		}
		if reject != "" {
			res.Accepted = false
			res.RejectedAt = StepData
			res.Reason = reject
			return res, nil
		}
	}
	return res, nil
}

// probeContextOn is the read-only core of contextCheck: it probes
// whether the view element the operation anchors at exists, through
// the plan's prepared statement when available, without materializing
// the result as a temporary table.
func (e *Executor) probeContextOn(rd sqlexec.Reader, ro *ResolvedOp, preds []UserPred, po *PlannedOp, args []relational.Value, res *Result) (string, error) {
	if po.NoProbe {
		return "", nil
	}
	var rs *sqlexec.ResultSet
	var probeSQL string
	if po.Probe != nil {
		var err error
		rs, err = po.Probe.ExecSelectOn(rd, args...)
		if err != nil {
			return "", err
		}
		probeSQL = po.Probe.SQL(args...)
	} else {
		sel := e.buildContextProbe(ro.Context, preds, relsNeededByOp(ro))
		if sel == nil {
			return "", nil
		}
		var err error
		rs, err = e.Exec.ExecSelectOn(rd, sel)
		if err != nil {
			return "", err
		}
		probeSQL = sel.String()
	}
	res.Probes = append(res.Probes, probeSQL)
	if rs.Empty() {
		return fmt.Sprintf("update context <%s> does not exist in the view (probe %q returned no rows)",
			ro.Context.Name, probeSQL), nil
	}
	return "", nil
}

// CheckBatchData pins ONE snapshot for the whole batch and fans the
// updates across a worker pool running the snapshot-pinned data check:
// every verdict in the batch is evaluated against the same
// point-in-time state, even while applies land concurrently. workers
// <= 0 selects GOMAXPROCS.
func (e *Executor) CheckBatchData(updates []string, workers int) []BatchResult {
	snap := e.Snapshot()
	defer snap.Close()
	return e.CheckBatchDataAt(snap, updates, workers)
}

// CheckBatchDataAt is CheckBatchData against a caller-pinned Reader.
func (e *Executor) CheckBatchDataAt(rd sqlexec.Reader, updates []string, workers int) []BatchResult {
	out := make([]BatchResult, len(updates))
	if len(updates) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(updates) {
		workers = len(updates)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := e.CheckDataAt(rd, updates[i])
				out[i] = BatchResult{Index: i, Result: res, Err: err}
			}
		}()
	}
	for i := range updates {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
