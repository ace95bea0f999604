// Package ufilter is the public facade over the paper's contribution:
// the three-step lightweight view update checking framework of Fig. 5
// — update validation (Section 4), schema-driven translatability
// reasoning / the STAR algorithm (Section 5), data-driven
// translatability checking (Section 6) — plus the update translation
// engine that emits the final single-table SQL statements.
//
// The pipeline itself lives in internal/plan, the
// compile-once/execute-many layer: plan.Compile turns an update
// template into an immutable UpdatePlan (resolved ops, STAR verdicts,
// shared-check list, parameterized probe statements) and the
// plan.Executor binds literal tuples and executes against the
// database. Filter wraps one Executor per view, keeps the historical
// Check/Apply/CheckBatch API, and routes everything through the
// executor's internal plan cache — so callers get
// compile-once/execute-many behavior without touching the plan API,
// while Prepare/Execute expose it directly for prepared workloads.
package ufilter

import (
	"repro/internal/asg"
	"repro/internal/plan"
	"repro/internal/relational"
	"repro/internal/xmltree"
	"repro/internal/xqparse"
)

// Re-exported pipeline types: the facade's API is the plan package's
// API under the names this package has always used, so existing
// callers (and the repro root facade) compile unchanged.
type (
	// Strategy selects the data-driven update-point checking approach
	// of Section 6.2.
	Strategy = plan.Strategy
	// Step identifies the U-Filter step that produced a rejection.
	Step = plan.Step
	// Outcome is the STAR classification of Fig. 6.
	Outcome = plan.Outcome
	// Condition is the side condition attached to a conditionally
	// translatable update.
	Condition = plan.Condition
	// StarVerdict is the STAR checking procedure's answer for one
	// operation.
	StarVerdict = plan.StarVerdict
	// Result reports the outcome of checking (and optionally applying)
	// one view update.
	Result = plan.Result
	// BatchResult pairs one update of a CheckBatch/ApplyBatch call with
	// its verdict.
	BatchResult = plan.BatchResult
	// BlindResult reports the Fig. 14 "translate then diff then
	// rollback" baseline execution.
	BlindResult = plan.BlindResult
	// CacheStats snapshots the plan cache's effectiveness counters.
	CacheStats = plan.CacheStats
	// WriteStats snapshots the parallel write path's conflict, retry
	// and group-commit counters.
	WriteStats = plan.WriteStats
	// Marks carries the STAR marking of one view.
	Marks = plan.Marks
	// UserPred is a user-update predicate compiled against the view
	// ASG.
	UserPred = plan.UserPred
	// ResolvedUpdate is a parsed update bound to the view's ASG.
	ResolvedUpdate = plan.ResolvedUpdate
	// ResolvedOp is one update operation bound to view ASG nodes.
	ResolvedOp = plan.ResolvedOp
	// UpdatePlan is the immutable compile-once artifact for one update
	// template; see Filter.Prepare.
	UpdatePlan = plan.UpdatePlan
)

// Update-point strategies (Section 6.2).
const (
	StrategyHybrid   = plan.StrategyHybrid
	StrategyOutside  = plan.StrategyOutside
	StrategyInternal = plan.StrategyInternal
)

// Pipeline steps.
const (
	StepNone       = plan.StepNone
	StepValidation = plan.StepValidation
	StepSTAR       = plan.StepSTAR
	StepData       = plan.StepData
)

// STAR classification outcomes.
const (
	OutcomeInvalid        = plan.OutcomeInvalid
	OutcomeUntranslatable = plan.OutcomeUntranslatable
	OutcomeConditional    = plan.OutcomeConditional
	OutcomeUnconditional  = plan.OutcomeUnconditional
)

// Side conditions of conditionally translatable updates.
const (
	CondNone             = plan.CondNone
	CondMinimization     = plan.CondMinimization
	CondDupConsistency   = plan.CondDupConsistency
	CondSharedPartsExist = plan.CondSharedPartsExist
)

// ParseStrategy maps a strategy name (as printed by Strategy.String) to
// its value, case-insensitively. An empty name selects StrategyHybrid.
func ParseStrategy(name string) (Strategy, error) { return plan.ParseStrategy(name) }

// MarkViewASG runs the STAR marking procedure (Algorithm 1) over a
// view's ASGs.
func MarkViewASG(view *asg.ViewASG, base *asg.BaseASG) *Marks {
	return plan.MarkViewASG(view, base)
}

// Resolve binds an update query's variables, predicates and operations
// to nodes of the view ASG (Step 1's first half).
func Resolve(u *xqparse.UpdateQuery, view *asg.ViewASG) (*ResolvedUpdate, error) {
	return plan.Resolve(u, view)
}

// Filter is a compiled U-Filter instance for one view over one
// database. It embeds the plan.Executor that holds the marked ASGs,
// the SQL executor and the plan cache; the historical API (Check,
// CheckParsed, CheckBatch, Apply, BlindApply, CacheStats)
// is the executor's, promoted — as are the snapshot-isolated data
// checks (Snapshot, CheckData, CheckDataAt, CheckBatchData). The
// concurrency contract is the executor's: checks fan out freely and
// never wait on an in-flight apply (data checks pin an MVCC snapshot,
// so each sees a single point-in-time view); mutating calls each run in
// their own transaction, in parallel, with write-write conflicts
// retried.
type Filter struct {
	*plan.Executor
}

// New parses a view query, builds and marks its ASGs over the given
// database, and returns a ready filter using the hybrid strategy.
func New(viewQuery string, db relational.Engine) (*Filter, error) {
	q, err := xqparse.ParseViewQuery(viewQuery)
	if err != nil {
		return nil, err
	}
	view, err := asg.BuildViewASG(q, db.Schema())
	if err != nil {
		return nil, err
	}
	base := asg.BuildBaseASG(view, db.Schema())
	marks := plan.MarkViewASG(view, base)
	return &Filter{Executor: plan.NewExecutor(view, base, marks, db)}, nil
}

// Prepare compiles an update's template into an immutable UpdatePlan:
// resolution, Step 1 validation and Step 2 STAR verdicts run once, and
// the plan carries parameterized probe statements plus precompiled
// translation artifacts. Pair it with Execute/ExecuteBatch (promoted
// from plan.Executor) for the compile-once/execute-many fast path; the
// plain Check/Apply API reaches the same machinery through the
// internal plan cache.
func (f *Filter) Prepare(updateText string) (*UpdatePlan, error) {
	return f.Executor.CompileText(updateText)
}

// Test-support forwarders: package-internal tests exercise pieces of
// the pipeline that now live in internal/plan.
func checkConjunctionSatisfiable(preds []relational.CheckPredicate) bool {
	return plan.ConjunctionSatisfiable(preds)
}

func expectedView(before *xmltree.Node, r *ResolvedUpdate) *xmltree.Node {
	return plan.ExpectedView(before, r)
}
