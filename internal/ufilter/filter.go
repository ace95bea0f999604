// Package ufilter is the U-Filter pipeline, the paper's contribution:
// the three-step lightweight view update checking framework of Fig. 5
// — update validation (Section 4), schema-driven translatability
// reasoning / the STAR algorithm (Section 5), data-driven
// translatability checking (Section 6) — plus the update translation
// engine that emits the final single-table SQL statements.
//
// A Filter is compile-once/execute-many. It separates what the
// framework decides from schema alone — resolution against the view
// ASG, Step 1 validation, Step 2 STAR reasoning, and the structure of
// the probe queries and translated SQL — from what must see base data.
// An UpdatePlan captures the schema-level work for one update
// *template* (the update with its predicate literals and content
// values stripped): resolved operations, per-op STAR verdicts, the
// shared-part check list, the column each content slot feeds, and
// parameterized probe statement templates prepared through
// internal/sqlexec. The Filter then binds an instance's values — its
// predicate literals and the leaf text of its inserted or replacing
// fragments, read off the update text by xqparse.ScanUpdate without a
// parse — into a plan, derives the value-dependent half of Step 1 from
// them, and runs the data-driven checks and the translation against
// the database, so structurally-repeated updates pay resolution, STAR
// classification and probe preparation once per template instead of
// once per request.
//
// Layering: xqparse → asg/viewengine → ufilter → sqlexec → relational.
package ufilter

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asg"
	"repro/internal/obs"
	"repro/internal/relational"
	"repro/internal/sqlexec"
	"repro/internal/xqparse"
)

// Strategy selects the data-driven update-point checking approach of
// Section 6.2.
type Strategy int

const (
	// StrategyHybrid translates to single-table SQL and lets the
	// relational engine's constraint errors signal data conflicts
	// (Section 6.2.2, hybrid).
	StrategyHybrid Strategy = iota
	// StrategyOutside issues a probe per target relation before
	// translating, detecting conflicts and empty deletes early
	// (Section 6.2.2, outside).
	StrategyOutside
	// StrategyInternal maps the XML view to a relational left-join view
	// and updates that view (Section 6.2.1).
	StrategyInternal
)

// Step identifies the U-Filter step that produced a rejection.
type Step int

const (
	// StepNone means the update was not rejected.
	StepNone Step = 0
	// StepValidation is Step 1 (update validation).
	StepValidation Step = 1
	// StepSTAR is Step 2 (schema-driven translatability reasoning).
	StepSTAR Step = 2
	// StepData is Step 3 (data-driven translatability checking).
	StepData Step = 3
)

// Result reports the outcome of checking (and optionally applying) one
// view update through the U-Filter pipeline. The JSON encoding is
// stable: enum fields marshal to the same strings their String methods
// print, so the CLI, the ufilterd server and tests share one spelling
// of each verdict.
type Result struct {
	Accepted   bool        `json:"accepted"`
	RejectedAt Step        `json:"rejected_at"`
	Outcome    Outcome     `json:"outcome"`
	Conditions []Condition `json:"conditions,omitempty"`
	Reason     string      `json:"reason,omitempty"`
	// Probes lists the SQL text of the probe queries issued by Step 3.
	Probes []string `json:"probes,omitempty"`
	// SQL lists the translated statements (generated; executed when
	// Apply was used).
	SQL []string `json:"sql,omitempty"`
	// RowsAffected counts base rows touched by an applied update.
	RowsAffected int `json:"rows_affected"`
	// Warnings carries non-fatal signals such as the engine's "zero
	// tuples deleted" response.
	Warnings []string `json:"warnings,omitempty"`
}

// Filter is the compiled runtime for one view over one database: the
// ASGs are built and STAR-marked once at view definition time (the
// paper's "compiled once and reused thereafter"), then any number of
// updates can be checked, compiled into UpdatePlans, and executed
// against it.
//
// Concurrency: the filter has a lock-free read path and a PARALLEL
// write path. Check, CheckParsed, CheckBatch and Compile read only the
// immutable ASGs and marks plus the internally synchronized plan
// cache; CheckDataAt and CheckBatchDataAt additionally run Step 3's
// read-only probes against a pinned database snapshot — so check
// latency is independent of apply load. Apply, ApplyBatch, Execute
// and BlindApply each open their OWN
// transaction against the MVCC engine: independent updates run their
// probes, checks and translated statements fully concurrently, commits
// share write-ahead-log flushes in the engine's writer stage, and two
// updates that touch the same rows resolve by first-updater-wins — the
// loser retries automatically with capped backoff and surfaces
// relational.ErrWriteConflict only when the retries are exhausted (the
// ufilterd gateway maps that to 409). The configuration fields
// (Strategy, MaxWriteRetries) must be set before the filter is shared
// across goroutines.
//
// Every check and apply runs off a compiled UpdatePlan; tests take a
// throwaway plan per update as their reference, and the view-diff
// oracle (oracle_test.go) checks the verdicts themselves.
type Filter struct {
	View     *asg.ViewASG
	Marks    *Marks
	Exec     *sqlexec.Executor
	Strategy Strategy

	// MaxWriteRetries caps how many times a conflicted apply is retried
	// before ErrWriteConflict escapes to the caller; 0 selects
	// defaultWriteRetries. Set before sharing the executor.
	MaxWriteRetries int

	// Obs receives the engine-internal latency/size distributions
	// (compile time, retries per apply, commit wait); see obs.go.
	// Set by New, never nil.
	Obs *ObsHists

	// cache holds one compiled UpdatePlan per update template; see
	// cache.go. Set by New, never nil.
	cache *Cache

	// tempSeq allocates names in the shared temporary-table namespace;
	// atomic because concurrent applies materialize temps in parallel.
	tempSeq atomic.Int64

	txnRetries      atomic.Int64 // apply attempts re-run after a write conflict
	conflictErrors  atomic.Int64 // applies that exhausted their retries
	conflictApplies atomic.Int64 // applies that hit >=1 conflict (retried or not)
}

// applyCtx is the per-apply execution state threaded through the
// mutating pipeline: the transaction of the update's group (all probe
// reads and translated statements go through it, so the update
// observes a stable snapshot plus its group's writes) and the update's
// bound values — its predicates (consumed by the probes) and the
// content values the plan's insert/replace artifacts index. One
// applyCtx never crosses goroutines; making it explicit — instead of
// fields on the shared Filter — is what lets applies run concurrently
// at all.
type applyCtx struct {
	txn relational.WriteTxn
	bound
	// trace is the request's span recorder (nil when untraced); runOps
	// and commit record stage timings into it.
	trace *obs.Trace
}

// New parses a view query, builds and STAR-marks its ASGs over the
// given database, and returns a ready filter using the hybrid strategy.
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
	return &Filter{
		View:  view,
		Marks: markViewASG(view, base),
		Exec:  sqlexec.NewExecutor(db),
		Obs:   newObsHists(),
		cache: NewCache(),
	}, nil
}

// defaultWriteRetries is the conflict-retry cap when MaxWriteRetries
// is unset: enough attempts that transient claim races always resolve,
// few enough that a persistently hot row fails fast to the caller.
const defaultWriteRetries = 8

func (e *Filter) maxWriteRetries() int {
	if e.MaxWriteRetries > 0 {
		return e.MaxWriteRetries
	}
	return defaultWriteRetries
}

// conflictBackoff sleeps before retry attempt n (0-based), doubling
// from 50µs and capping at 2ms so a burst of conflicting writers
// de-synchronizes without adding visible latency. The shift is
// clamped (6 doublings already exceed the cap) so a high
// MaxWriteRetries cannot overflow the duration into a busy loop.
func conflictBackoff(n int) {
	if n > 6 {
		n = 6
	}
	d := 50 * time.Microsecond << uint(n)
	if d > 2*time.Millisecond {
		d = 2 * time.Millisecond
	}
	time.Sleep(d)
}

// WriteStats reports the parallel write path's health: how often
// applies conflicted, retried and gave up. (How well commits shared
// flushes is the engine's to report: DBStats.GroupCommits/GroupedTxns.)
type WriteStats struct {
	// Retries counts apply attempts re-run after a write-write
	// conflict.
	Retries int64 `json:"retries" stat:"txn_retries_total,counter,sum" help:"Apply attempts re-run after a write-write conflict."`
	// ConflictedApplies counts applies that hit at least one conflict.
	ConflictedApplies int64 `json:"conflicted_applies" stat:",counter,sum"`
	// Exhausted counts applies that ran out of retries and surfaced
	// ErrWriteConflict to the caller (ufilterd answers 409).
	Exhausted int64 `json:"exhausted" stat:",counter,sum"`
}

// WriteStats snapshots the write-path counters; safe under traffic.
func (e *Filter) WriteStats() WriteStats {
	return WriteStats{
		Retries:           e.txnRetries.Load(),
		ConflictedApplies: e.conflictApplies.Load(),
		Exhausted:         e.conflictErrors.Load(),
	}
}

// CacheStats snapshots the plan cache's hit/miss counters. All zeros
// until the executor has checked an update.
func (e *Filter) CacheStats() CacheStats {
	return e.cache.Stats()
}

// Stats is a read-only snapshot of one filter's observable counters:
// the decision cache's effectiveness, the executor's scan/probe work,
// the underlying database's DML and write-ahead-log activity, and the
// parallel write path's conflict/retry/group-commit health. Every
// counter is read atomically, so a snapshot may be taken while other
// goroutines are checking or applying updates; the fields are
// individually consistent (each is exact at its own read instant).
type Stats struct {
	Cache    CacheStats         `json:"cache"`
	Executor sqlexec.ExecStats  `json:"executor"`
	Database relational.DBStats `json:"database"`
	Write    WriteStats         `json:"write"`
}

// Stats snapshots the filter's cache, executor, database and
// write-path counters. Safe for concurrent use with Check, CheckBatch
// and Apply.
func (f *Filter) Stats() Stats {
	return Stats{
		Cache:    f.CacheStats(),
		Executor: f.Exec.Stats(),
		Database: f.Exec.DB.Stats(),
		Write:    f.WriteStats(),
	}
}

// Check runs the two schema-level steps only (no base-data access):
// Step 1 validation and Step 2 STAR reasoning. Updates that pass are
// reported Accepted with their STAR outcome; Step 3 still applies when
// the update is executed.
//
// The verdict is served from the plan cache when a structurally-equal
// update was checked before: an update that differs only in predicate
// literals or content values is answered off the template's compiled
// UpdatePlan by binding its values (the value-dependent half of Step 1
// is re-derived per instance, never stored), and is not parsed. When
// ctx carries an obs.Trace (see obs.WithTrace), the cache lookup, bind
// and — for a template met for the first time — parse and compile
// stages record spans into it; otherwise the trace plumbing is a nil
// no-op.
func (e *Filter) Check(ctx context.Context, updateText string) (*Result, error) {
	res, _, _, err := e.checkText(updateText, obs.FromContext(ctx))
	return res, err
}

// CheckParsed is Check over a pre-parsed update.
func (e *Filter) CheckParsed(u *xqparse.UpdateQuery) (*Result, error) {
	res, _, _, err := e.checkCached(u, nil)
	return res, err
}

// scanState is a pooled xqparse.ScanUpdate buffer, plus the content
// texts of a hit laid out in its plan's ContentSlots order.
type scanState struct {
	xqparse.Scanned
	raw []string
}

var scanStates = sync.Pool{New: func() any { return new(scanState) }}

// checkText answers an update text off its template's resident plan.
// Beside the verdict it hands back the plan and, for an accepted update,
// the bound values, so the apply and data-check paths execute with
// exactly what the verdict was derived from; on an error only the error
// counts. The text is scanned, not
// parsed: the scan's key finds the plan and its literals and leaf texts
// bind straight into it. Only a text the scanner declines, a template
// not resident yet, or one whose instances cannot bind from a scan is
// parsed (and, on a miss, compiled).
func (e *Filter) checkText(text string, tr *obs.Trace) (*Result, *UpdatePlan, bound, error) {
	st := scanStates.Get().(*scanState)
	defer scanStates.Put(st)
	endLookup := tr.StartSpan("cache_lookup")
	var p *UpdatePlan
	if xqparse.ScanUpdate(text, &st.Scanned) {
		p = e.cache.plan(st.Key)
	}
	endLookup()
	if p != nil && p.scanBindable {
		endBind := tr.StartSpan("bind")
		st.raw = st.raw[:0]
		for _, s := range p.ContentSlots {
			st.raw = append(st.raw, st.Texts[s.ordinal])
		}
		res, b, err := p.derive(st.Lits, st.raw)
		endBind()
		return res, p, b, err
	}
	endParse := tr.StartSpan("parse")
	u, err := xqparse.ParseUpdate(text)
	endParse()
	if err != nil {
		return nil, nil, bound{}, err
	}
	if p == nil {
		return e.checkCached(u, tr)
	}
	return e.bindTraced(p, u, tr)
}

// checkCached answers a parsed update off its template's resident plan,
// compiling the template on its first sighting; it returns what
// checkText does.
func (e *Filter) checkCached(u *xqparse.UpdateQuery, tr *obs.Trace) (*Result, *UpdatePlan, bound, error) {
	endLookup := tr.StartSpan("cache_lookup")
	var buf [256]byte
	key := u.AppendKey(buf[:0])
	p := e.cache.plan(key)
	endLookup()
	if p == nil {
		endCompile := tr.StartSpan("compile")
		var err error
		p, err = e.compileOnce(key, u)
		endCompile()
		if err != nil {
			return nil, nil, bound{}, err
		}
	}
	return e.bindTraced(p, u, tr)
}

// bindTraced is bindParsed under a "bind" span.
func (e *Filter) bindTraced(p *UpdatePlan, u *xqparse.UpdateQuery, tr *obs.Trace) (*Result, *UpdatePlan, bound, error) {
	endBind := tr.StartSpan("bind")
	res, b, err := e.bindParsed(p, u)
	endBind()
	return res, p, b, err
}

// compileOnce compiles the plan of a template the cache does not hold
// and stores it. First compiles are serialized, so concurrent first
// sightings of one template compile it once and the rest find it
// resident.
func (e *Filter) compileOnce(key []byte, u *xqparse.UpdateQuery) (*UpdatePlan, error) {
	c := e.cache
	c.compileMu.Lock()
	defer c.compileMu.Unlock()
	if p := c.plan(key); p != nil {
		return p, nil
	}
	p, err := e.Compile(u)
	if err != nil {
		return nil, err
	}
	c.storePlan(p)
	return p, nil
}

// starVerdicts applies the STAR checking procedure to one resolved op.
// Replace is delete-then-insert (footnote 4), but leaf/tag replaces are
// value updates, judged like leaf deletes.
func (e *Filter) starVerdicts(ro *ResolvedOp) []StarVerdict {
	switch ro.Op.Kind {
	case xqparse.OpDelete:
		return []StarVerdict{e.Marks.CheckDelete(ro.Target)}
	case xqparse.OpInsert:
		return []StarVerdict{e.Marks.CheckInsert(ro.Target)}
	case xqparse.OpReplace:
		if ro.Target.Kind == asg.KindInternal {
			return []StarVerdict{e.Marks.CheckDelete(ro.Target), e.Marks.CheckInsert(ro.Target)}
		}
		return []StarVerdict{e.Marks.CheckLeaf(replaceLeafOf(ro.Target))}
	}
	return nil
}

// BatchResult pairs one update of a CheckBatch or ApplyBatch call with
// its verdict. Exactly one of Result and Err is set.
type BatchResult struct {
	// Index is the update's position in the input slice.
	Index int
	// Result is the verdict, nil when Err is set.
	Result *Result
	// Err reports a parse or internal error for this update only.
	Err error
}

// CheckBatch fans a slice of updates across a worker pool and runs the
// schema-level Check on each, returning per-update results in input
// order. All workers share the executor's plan cache, so batches with
// repeated templates — the production shape the paper's "lightweight"
// claim targets — are answered mostly from memory. workers <= 0 selects
// GOMAXPROCS; a batch smaller than the pool uses one worker per update.
func (e *Filter) CheckBatch(updates []string, workers int) []BatchResult {
	return checkPool(updates, workers, func(text string) (*Result, error) {
		res, _, _, err := e.checkText(text, nil)
		return res, err
	})
}

// checkPool runs check over every update on a pool of workers (<= 0
// selects GOMAXPROCS, never more than one per update) and returns the
// results in input order. Workers claim indices from a shared counter
// and the caller is one of them, so a one-worker batch starts no
// goroutine.
func checkPool(updates []string, workers int, check func(string) (*Result, error)) []BatchResult {
	out := make([]BatchResult, len(updates))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < len(updates); i = int(next.Add(1) - 1) {
			res, err := check(updates[i])
			out[i] = BatchResult{Index: i, Result: res, Err: err}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, len(updates)); w++ {
		wg.Add(1)
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
	return out
}

// Apply runs the full pipeline: Steps 1 and 2, then Step 3's probe
// queries and update-point checking under the configured strategy, and
// finally executes the translated statements. A rejected update leaves
// the database untouched. An obs.Trace on ctx receives per-stage spans
// (cache lookup, bind, parse and compile on a template's first
// sighting, context checks, translate, execute, conflict backoff,
// commit publish, WAL fsync).
//
// A single apply is a group of one: it runs through the same retrying
// group runner as ApplyBatch (applyGroupWithRetry), in its own
// transaction, concurrently with other applies and batches;
// conflicting writes resolve by first-updater-wins with automatic
// capped-backoff retries, and commits share write-ahead-log flushes in
// the engine's writer stage. Execution runs off the template's compiled
// UpdatePlan — its resolution, prepared probe statements and
// insert/replace artifacts — bound to this update's literals and
// content values.
func (e *Filter) Apply(ctx context.Context, updateText string) (*Result, error) {
	tr := obs.FromContext(ctx)
	res, p, b, err := e.admit(updateText, tr)
	if err != nil || !res.Accepted {
		return res, err
	}
	return e.applyOne(&groupItem{res: res, p: p, b: b}, tr)
}

// admit is checkText for an apply: an accepted update counts as a plan
// apply, and its bound values are copied off the request text.
func (e *Filter) admit(text string, tr *obs.Trace) (*Result, *UpdatePlan, bound, error) {
	res, p, b, err := e.checkText(text, tr)
	if err == nil && res.Accepted {
		e.cache.planApplies.Add(1)
		b = b.own()
	}
	return res, p, b, err
}

// resultMark checkpoints the mutable fields of a Result so a
// conflict-retried attempt starts from the pre-attempt state instead
// of double-appending probes and SQL.
type resultMark struct {
	accepted   bool
	rejectedAt Step
	outcome    Outcome
	reason     string
	nProbes    int
	nSQL       int
	nWarnings  int
	rows       int
}

func markResult(res *Result) resultMark {
	return resultMark{
		accepted:   res.Accepted,
		rejectedAt: res.RejectedAt,
		outcome:    res.Outcome,
		reason:     res.Reason,
		nProbes:    len(res.Probes),
		nSQL:       len(res.SQL),
		nWarnings:  len(res.Warnings),
		rows:       res.RowsAffected,
	}
}

func (m resultMark) restore(res *Result) {
	res.Accepted = m.accepted
	res.RejectedAt = m.rejectedAt
	res.Outcome = m.outcome
	res.Reason = m.reason
	res.Probes = res.Probes[:m.nProbes]
	res.SQL = res.SQL[:m.nSQL]
	res.Warnings = res.Warnings[:m.nWarnings]
	res.RowsAffected = m.rows
}

// commit commits the apply's transaction. Concurrent applies share WAL
// flushes with no help from this layer: the engine's writer stage
// fsyncs whatever queued behind the previous flush as one batch. The
// commit-wait histogram records the full call; tr, when non-nil,
// receives "commit_publish" (wait minus fsync) and "wal_fsync" spans —
// the last fsync the engine recorded covers this commit, because Commit
// returns only after its record is durable.
func (e *Filter) commit(txn relational.WriteTxn, tr *obs.Trace) error {
	start := time.Now()
	err := txn.Commit()
	wait := time.Since(start).Nanoseconds()
	e.Obs.CommitWait.Record(wait)
	if tr != nil {
		var fsyncNs int64
		if err == nil {
			fsyncNs = e.Exec.DB.LastFsyncNanos()
		}
		tr.Add("commit_publish", time.Duration(max(wait-fsyncNs, 0)))
		if fsyncNs > 0 {
			tr.Add("wal_fsync", time.Duration(fsyncNs))
		}
	}
	return err
}

// runOps executes every operation of a resolved update against the
// apply's own transaction: context probe, translation, shared checks
// and the translated statements under the configured strategy. It
// reports rejected=true (with res.RejectedAt/Reason set) when Step 1
// or Step 3 rejects the update mid-flight.
func (e *Filter) runOps(ac *applyCtx, p *UpdatePlan, res *Result) (rejected bool, err error) {
	args := probeArgs(ac.preds)
	for i := range p.Resolved.Ops {
		ro, po := &p.Resolved.Ops[i], &p.Ops[i]
		endCtx := ac.trace.StartSpan("context_check")
		probe, tempName, reject, err := e.contextCheck(ac, ro, po, args, res)
		endCtx()
		if err != nil {
			return false, err
		}
		if tempName != "" {
			// The temp only needs to outlive this op's statements.
			defer e.Exec.DropTemp(tempName)
		}
		if reject != "" {
			res.RejectedAt = StepData
			res.Reason = reject
			return true, nil
		}
		endTranslate := ac.trace.StartSpan("translate")
		tr, err := e.translateOp(ac, ro, po, probe, tempName, res)
		endTranslate()
		if err != nil {
			var ve *validationError
			if errors.As(err, &ve) {
				res.RejectedAt = StepValidation
				res.Outcome = OutcomeInvalid
				res.Reason = ve.msg
				return true, nil
			}
			return false, err
		}
		endExec := ac.trace.StartSpan("execute")
		if reject, err := e.runSharedChecksOn(ac.txn, tr.SharedChecks, tr.content, res); err != nil {
			endExec()
			return false, err
		} else if reject != "" {
			endExec()
			res.RejectedAt = StepData
			res.Reason = reject
			return true, nil
		}
		reject, err = e.executeStatements(ac, ro, tr.Statements, res)
		endExec()
		if err != nil {
			return false, err
		}
		if reject != "" {
			res.RejectedAt = StepData
			res.Reason = reject
			return true, nil
		}
	}
	return false, nil
}

// probeArgs lists the bound predicate literals as the parameters of a
// plan's prepared probe statements.
func probeArgs(preds []UserPred) []relational.Value {
	args := make([]relational.Value, len(preds))
	for i := range preds {
		args[i] = preds[i].Lit
	}
	return args
}

// contextCheck runs the data-driven update context check (Section 6.1):
// it probes whether the view element the update anchors at exists,
// through the plan's prepared statement bound to the update's literal
// tuple, and materializes the probe result for reuse by the
// translation. An op anchored at the view root has no probe.
//
// The materialized temporary table is consumed only by the IN-temp
// shape of internal-node deletes (the paper's U3), so other op kinds
// skip the materialization; runOps drops the temp once its op
// finishes, keeping the executor's temp namespace bounded under
// sustained traffic.
func (e *Filter) contextCheck(ac *applyCtx, ro *ResolvedOp, po *PlannedOp, args []relational.Value, res *Result) (*sqlexec.ResultSet, string, string, error) {
	rs, reject, err := e.probeContext(ac.txn, ro, po, args, res)
	if rs == nil || reject != "" || err != nil {
		return nil, "", reject, err
	}
	if ro.Op.Kind != xqparse.OpDelete || ro.Target.Kind != asg.KindInternal {
		// Inserts, replaces and leaf deletes read the probe result
		// directly; no translated statement references the temp.
		return rs, "", "", nil
	}
	tempName := fmt.Sprintf("TAB_%s_%d", strings.ToLower(ro.Context.Name), e.tempSeq.Add(1))
	e.Exec.Materialize(tempName, rs)
	return rs, tempName, "", nil
}

// probeContext runs an op's prepared context probe through a Reader —
// the apply's transaction or the data-check path's snapshot — and
// records it in res. It returns the probe's rows, or a rejection when
// the context does not exist; no rows and no rejection when the op has
// no probe.
func (e *Filter) probeContext(rd sqlexec.Reader, ro *ResolvedOp, po *PlannedOp, args []relational.Value, res *Result) (*sqlexec.ResultSet, string, error) {
	if po.Probe == nil {
		return nil, "", nil
	}
	rs, err := po.Probe.ExecSelectOn(rd, args...)
	if err != nil {
		return nil, "", err
	}
	probeSQL := po.Probe.SQL(args...)
	res.Probes = append(res.Probes, probeSQL)
	if rs.Empty() {
		return nil, fmt.Sprintf("update context <%s> does not exist in the view (probe %q returned no rows)",
			ro.Context.Name, probeSQL), nil
	}
	return rs, "", nil
}

// runSharedChecksOn verifies the CondSharedPartsExist probes through a
// Reader — the apply's transaction, or the snapshot-pinned check
// path's snapshot — so shared parts are verified against the same
// point-in-time state as the context probes: each shared relation's
// row must already exist (otherwise the insert would surface a new
// instance of another view node — a side effect) and must agree with
// the fragment's values (duplication consistency). content holds the
// fragment's bound values, which the checks' slots index.
func (e *Filter) runSharedChecksOn(rd sqlexec.Reader, checks []SharedCheck, content []relational.Value, res *Result) (string, error) {
	for _, chk := range checks {
		sel := &sqlexec.SelectStmt{From: []string{chk.Rel}}
		keyVals := make([]relational.Value, len(chk.KeyCols))
		for i, c := range chk.KeyCols {
			keyVals[i] = content[chk.keySlots[i]]
			sel.Where = append(sel.Where, sqlexec.Eq(chk.Rel, c, keyVals[i]))
		}
		rs, err := e.Exec.ExecSelectOn(rd, sel)
		if err != nil {
			return "", err
		}
		res.Probes = append(res.Probes, sel.String())
		if rs.Empty() {
			return fmt.Sprintf("inserting would create a new %s row, causing another view element to appear (shared part %v missing)",
				chk.Rel, keyVals), nil
		}
		for col, slot := range chk.cols {
			ci, ok := rs.ColumnIndex(sqlexec.ColRef{Table: chk.Rel, Column: col})
			if !ok {
				continue
			}
			got, want := rs.Rows[0][ci], content[slot]
			if !want.IsNull() && !got.Equal(want) {
				return fmt.Sprintf("duplication consistency violated: %s.%s is %s in the base but %s in the inserted element",
					chk.Rel, col, got, want), nil
			}
		}
	}
	return "", nil
}

// executeStatements runs the translated statements under the configured
// update-point strategy. It returns a non-empty rejection reason when a
// data conflict is detected.
func (e *Filter) executeStatements(ac *applyCtx, ro *ResolvedOp, stmts []sqlexec.Statement, res *Result) (string, error) {
	switch e.Strategy {
	case StrategyInternal:
		return e.executeInternal(ac, ro, stmts, res)
	case StrategyOutside:
		return e.executeOutside(ac, stmts, res)
	default:
		return e.executeHybrid(ac, stmts, res)
	}
}

// executeHybrid feeds the statements straight to the engine and
// interprets constraint errors as data conflicts and zero-row deletes
// as warnings (Section 6.2.2, hybrid strategy). Write-write conflicts
// are NOT data conflicts: they propagate as errors so the apply's
// retry loop re-runs the whole attempt against fresh state.
func (e *Filter) executeHybrid(ac *applyCtx, stmts []sqlexec.Statement, res *Result) (string, error) {
	for _, st := range stmts {
		if reject, err := e.execStatement(ac, st, res); reject != "" || err != nil {
			return reject, err
		}
	}
	return "", nil
}

// execStatement runs one translated statement, recording its SQL and the
// rows it touched; an engine constraint violation is a data conflict.
func (e *Filter) execStatement(ac *applyCtx, st sqlexec.Statement, res *Result) (string, error) {
	sql := st.String()
	res.SQL = append(res.SQL, sql)
	n, err := 1, error(nil)
	switch s := st.(type) {
	case *sqlexec.InsertStmt:
		_, err = e.Exec.ExecInsert(ac.txn, s)
	case *sqlexec.DeleteStmt:
		if n, err = e.Exec.ExecDelete(ac.txn, s); err == nil && n == 0 {
			res.Warnings = append(res.Warnings, fmt.Sprintf("zero tuples deleted by %q", sql))
		}
	case *sqlexec.UpdateStmt:
		n, err = e.Exec.ExecUpdate(ac.txn, s)
	}
	if err != nil {
		if relational.IsConstraintViolation(err) {
			return fmt.Sprintf("data conflict reported by the engine: %v", err), nil
		}
		return "", err
	}
	res.RowsAffected += n
	return "", nil
}

// executeOutside probes for conflicts before issuing each statement
// (Section 6.2.2, outside strategy): inserts are preceded by a key
// probe, deletes by an existence probe that suppresses the statement
// when nothing matches (early failure detection).
func (e *Filter) executeOutside(ac *applyCtx, stmts []sqlexec.Statement, res *Result) (string, error) {
	for _, st := range stmts {
		var probe *sqlexec.SelectStmt
		switch s := st.(type) {
		case *sqlexec.InsertStmt:
			probe = e.keyProbe(s)
		case *sqlexec.DeleteStmt:
			probe = &sqlexec.SelectStmt{
				Project: []sqlexec.ColRef{{Table: s.Table, Column: "rowid"}},
				From:    []string{s.Table},
				Where:   s.Where,
				NoIndex: true,
			}
		}
		if probe != nil {
			rs, err := e.Exec.ExecSelectOn(ac.txn, probe)
			if err != nil {
				return "", err
			}
			res.Probes = append(res.Probes, probe.String())
			_, insert := st.(*sqlexec.InsertStmt)
			switch {
			case insert && !rs.Empty():
				return fmt.Sprintf("data conflict detected by probe: a %s row with the same key already exists", probe.From[0]), nil
			case !insert && rs.Empty():
				res.Warnings = append(res.Warnings,
					fmt.Sprintf("probe found no tuples to delete; %q not issued", st.String()))
				continue
			}
		}
		// The probe found no conflict (or the matching rows exist): issue
		// the translated statement as the hybrid strategy would.
		if reject, err := e.execStatement(ac, st, res); reject != "" || err != nil {
			return reject, err
		}
	}
	return "", nil
}

// keyProbe selects the row holding an insert's primary key; nil when the
// table has no key or the insert does not supply all of it.
func (e *Filter) keyProbe(s *sqlexec.InsertStmt) *sqlexec.SelectStmt {
	def, ok := e.Exec.DB.Schema().Table(s.Table)
	if !ok || len(def.PrimaryKey) == 0 {
		return nil
	}
	probe := &sqlexec.SelectStmt{
		Project: []sqlexec.ColRef{{Table: s.Table, Column: "rowid"}},
		From:    []string{s.Table},
		NoIndex: true,
	}
	for _, pk := range def.PrimaryKey {
		v, present := s.Values[strings.ToLower(pk)]
		if !present {
			v, present = s.Values[pk]
		}
		if !present || v.IsNull() {
			return nil
		}
		probe.Where = append(probe.Where, sqlexec.Eq(s.Table, pk, v))
	}
	return probe
}
