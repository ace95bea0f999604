package ufilter

import (
	"repro/internal/relational"
	"repro/internal/sqlexec"
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
func (e *Filter) Snapshot() relational.Snap {
	return e.Exec.DB.OpenSnapshot()
}

// CheckDataAt runs Steps 1+2 and the read-only data probes of Step 3
// against a caller-pinned Reader: typically a Snapshot, so several
// checks observe one point-in-time state and none blocks behind an
// apply (passing the live database degrades to read-committed probes).
func (e *Filter) CheckDataAt(rd sqlexec.Reader, updateText string) (*Result, error) {
	res, p, b, err := e.checkText(updateText, nil)
	if err != nil || !res.Accepted {
		return res, err
	}
	return e.probeData(rd, p, b, res)
}

// probeData runs an accepted instance's read-only Step 3 probes off its
// plan: each op's context probe, then an insert's shared-part checks.
// res is the caller's copy: probe SQL is appended to Probes and a failed
// probe downgrades Accepted with RejectedAt = StepData.
func (e *Filter) probeData(rd sqlexec.Reader, p *UpdatePlan, b bound, res *Result) (*Result, error) {
	args := probeArgs(b.preds)
	for i := range p.Resolved.Ops {
		ro, po := &p.Resolved.Ops[i], &p.Ops[i]
		_, reject, err := e.probeContext(rd, ro, po, args, res)
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

// CheckBatchDataAt fans the updates across a worker pool running
// CheckDataAt against one caller-pinned Reader: pinned to one snapshot,
// every verdict in the batch is evaluated against the same
// point-in-time state, even while applies land concurrently. workers
// <= 0 selects GOMAXPROCS.
func (e *Filter) CheckBatchDataAt(rd sqlexec.Reader, updates []string, workers int) []BatchResult {
	return checkPool(updates, workers, func(text string) (*Result, error) { return e.CheckDataAt(rd, text) })
}
