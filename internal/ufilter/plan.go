package ufilter

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/asg"
	"repro/internal/obs"
	"repro/internal/relational"
	"repro/internal/sqlexec"
	"repro/internal/xqparse"
)

// Slot describes one literal slot of an update template: the resolved
// view leaf the predicate compares (its type drives coercion) and the
// comparison operator. Slots are ordered as the template's predicates
// are; a bind-argument tuple supplies one value per slot.
type Slot struct {
	Leaf *asg.Node
	Op   relational.CompareOp
}

// PlannedOp carries the per-operation compile artifacts of an
// UpdatePlan.
type PlannedOp struct {
	// Verdicts are the STAR checking procedure's answers for the op.
	Verdicts []StarVerdict
	// Probe is the prepared context-probe statement with the
	// template's literal slots as parameters; nil when the op anchors
	// at the view root (no probe needed).
	Probe *sqlexec.Stmt
	// SharedChecks lists the shared-part existence/consistency checks
	// Step 3 must run for inserts (CondSharedPartsExist).
	SharedChecks []SharedCheck

	insert  *insertPlan // inserts and internal-node replaces
	replace int         // leaf/tag replaces: the content slot of the new value
}

// UpdatePlan is the immutable compile-once artifact for one update
// template over one view: everything the schema-level steps decide,
// plus the prepared statement templates the execution reuses. Plans
// are safe for concurrent use; binding never mutates them.
type UpdatePlan struct {
	// Key is the template key ((*xqparse.UpdateQuery).AppendKey) — the
	// plan cache's key.
	Key string
	// Resolved is the template's resolution against the view ASG; nil
	// when the template names something outside the view schema (the
	// plan then only records that no instance resolves).
	Resolved *ResolvedUpdate
	// Verdict is the schema-level verdict of the exemplar.
	Verdict *Result
	// Slots are the template's literal slots in predicate order.
	Slots []Slot
	// ContentSlots are the template's content slots: the leaf elements
	// of its INSERT/REPLACE fragments, in validation order. When Step 1
	// rejects the template itself they stop at the rejection.
	ContentSlots []ContentSlot
	// Ops holds one entry per resolved operation.
	Ops []PlannedOp

	// star is the STAR fold over all ops — the verdict assuming Step 1
	// passes. Shared by every instance of the template.
	star *Result
	// opInvalid is the template-level Step 1 rejection (target,
	// cardinality and fragment-structure checks, which read only the
	// template); nil when the ops validate. Step 1 reaches it after the
	// content slots collected before it, so an instance is rejected by
	// the first of those it violates, else by opInvalid.
	opInvalid *Result
	// exemplar holds the compiled update's own content texts, in ContentSlots
	// order: what Verdict/Execute bind beside a literal tuple.
	exemplar []string
	// scanBindable reports that an instance binds straight from
	// xqparse.ScanUpdate: the template resolves and every content slot is
	// a leaf element. Other templates' instances bind from a parse.
	scanBindable bool
}

// bound is one instance of a template bound to its plan: the predicate
// literals and content values, coerced into their leaves' domains. It is
// what the data-driven steps execute with.
type bound struct {
	preds   []UserPred
	content []relational.Value
}

// own copies the string content values off the update text a scan bound
// them from, so a row an apply writes does not keep the whole request
// alive.
func (b bound) own() bound {
	for i, v := range b.content {
		if v.Kind == relational.KindString {
			b.content[i].Str = strings.Clone(v.Str)
		}
	}
	return b
}

func invalidResult(reason string) *Result {
	return &Result{RejectedAt: StepValidation, Outcome: OutcomeInvalid, Reason: reason}
}

// Compile runs the schema-level pipeline once for an update over the
// executor's view and returns the immutable UpdatePlan: resolution,
// Step 1 validation and Step 2 STAR verdicts, plus prepared probe
// statement templates and precompiled insert/replace artifacts.
// Updates that fail resolution still yield a plan (carrying the
// invalid verdict), so callers can distinguish "update is bad" from
// "the pipeline broke"; only internal errors return a non-nil error.
// The execution artifacts are built for every template that passes
// the template-level half of Step 1 and STAR.
func (e *Filter) Compile(u *xqparse.UpdateQuery) (*UpdatePlan, error) {
	start := time.Now()
	defer func() { e.Obs.Compile.RecordDuration(time.Since(start)) }()
	p := &UpdatePlan{Key: string(u.AppendKey(nil))}
	r, litErr, err := resolve(u, e.View)
	if err != nil {
		if litErr != nil {
			err = litErr
		}
		var re *resolveError
		if errors.As(err, &re) {
			p.Verdict = invalidResult(re.msg)
			return p, nil
		}
		return nil, err
	}
	p.Resolved = r
	p.Slots = make([]Slot, len(r.UserPreds))
	for i, up := range r.UserPreds {
		p.Slots[i] = Slot{Leaf: up.Leaf, Op: up.Op}
	}

	// Step 2 fold: per-op STAR verdicts, most pessimistic outcome wins,
	// first untranslatable op rejects the template. The fold is
	// value-independent, so it is computed once here and cloned into
	// every instance's verdict.
	star := &Result{Outcome: OutcomeUnconditional}
	rejected := false
	p.Ops = make([]PlannedOp, len(r.Ops))
	for i := range r.Ops {
		ro := &r.Ops[i]
		verdicts := e.starVerdicts(ro)
		p.Ops[i].Verdicts = verdicts
		if rejected {
			continue
		}
		for _, v := range verdicts {
			switch v.Outcome {
			case OutcomeUntranslatable:
				star.RejectedAt = StepSTAR
				star.Outcome = OutcomeUntranslatable
				star.Conditions = nil
				star.Reason = v.Reason
				rejected = true
			case OutcomeConditional:
				star.Outcome = OutcomeConditional
				star.Conditions = append(star.Conditions, v.Conditions...)
				if star.Reason == "" {
					star.Reason = v.Reason
				}
			case OutcomeUnconditional:
				if star.Reason == "" {
					star.Reason = v.Reason
				}
			}
			if rejected {
				break
			}
		}
	}
	star.Accepted = !rejected
	p.star = star

	// Template-level half of Step 1: the per-op checks read neither the
	// predicate literals nor the content values, so their verdict is
	// computed once here, with the content slots laid out on the way.
	p.ContentSlots, err = templateOps(r)
	if err != nil {
		var ve *validationError
		if !errors.As(err, &ve) {
			return nil, err
		}
		p.opInvalid = invalidResult(ve.msg)
	}
	p.exemplar = p.contentOf(u)
	p.scanBindable = numberLeaves(u, p.ContentSlots)

	// Exemplar verdict: the plan bound to its own values.
	p.Verdict, _, err = p.derive(p.BindArgs(u), p.exemplar)
	if err != nil {
		return nil, err
	}
	if !rejected && p.opInvalid == nil {
		if err := e.compileArtifacts(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Prepare parses an update and compiles its template into an immutable
// UpdatePlan: resolution, Step 1 validation and Step 2 STAR verdicts
// run once, and the plan carries parameterized probe statements plus
// precompiled translation artifacts. Pair it with Verdict/Execute for
// the compile-once/execute-many fast path; Check and Apply reach the
// same machinery through the plan cache.
func (e *Filter) Prepare(updateText string) (*UpdatePlan, error) {
	u, err := xqparse.ParseUpdate(updateText)
	if err != nil {
		return nil, err
	}
	return e.Compile(u)
}

// compileArtifacts prepares the per-op execution artifacts: the
// parameterized context-probe statements and the template-level
// insert/replace translations. A probe that cannot be prepared names a
// table or column the database does not have, which no execution could
// get past either.
func (e *Filter) compileArtifacts(p *UpdatePlan) error {
	r := p.Resolved
	next := 0 // first content slot of the op
	for i := range r.Ops {
		ro := &r.Ops[i]
		po := &p.Ops[i]
		if sel := e.buildContextProbeTemplate(ro.Context, p.Slots, relsNeededByOp(ro)); sel != nil {
			narrowProbeProjection(sel, ro)
			stmt, err := e.Exec.Prepare(sel)
			if err != nil {
				return fmt.Errorf("plan: context probe of <%s>: %w", ro.Context.Name, err)
			}
			po.Probe = stmt
		}
		lo := next
		for next < len(p.ContentSlots) && p.ContentSlots[next].Op == i {
			next++
		}
		switch {
		case ro.Op.Kind == xqparse.OpInsert, ro.Op.Kind == xqparse.OpReplace && ro.Target.Kind == asg.KindInternal:
			po.insert = e.compileInsert(ro.Target, p.ContentSlots[lo:next], lo)
			po.SharedChecks = po.insert.sharedChecks
		case ro.Op.Kind == xqparse.OpReplace:
			po.replace = lo
		}
	}
	return nil
}

// narrowProbeProjection trims a prepared probe template's projection to
// the columns the op's translation actually reads — the compile-time
// equivalent of the paper's "only retrieves the L_ORDERKEY"
// observation: rowids of the written relation plus the context side of
// the target's edge conditions. Row multiplicity is untouched
// (projection never dedupes), so per-row insert fan-out is preserved.
func narrowProbeProjection(sel *sqlexec.SelectStmt, ro *ResolvedOp) {
	needed := map[string]bool{}
	addCol := func(rel, col string) { needed[strings.ToLower(rel)+"."+strings.ToLower(col)] = true }
	t := ro.Target
	switch {
	case t.Kind != asg.KindInternal:
		addCol(replaceLeafOf(t).RelName, "rowid")
	case ro.Anchor != "":
		addCol(ro.Anchor, "rowid")
	}
	if t.Kind == asg.KindInternal {
		for _, ref := range edgeContextCols(t) {
			addCol(ref.Rel, ref.Col)
		}
	}
	kept := sel.Project[:0:0]
	for _, c := range sel.Project {
		if needed[strings.ToLower(c.Table)+"."+strings.ToLower(c.Column)] {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 && len(sel.Project) > 0 {
		// Keep one column as the existence witness; an empty Project
		// would select everything.
		kept = append(kept, sel.Project[0])
	}
	sel.Project = kept
}

// contentOf extracts the content texts of a parsed instance of this
// template, in ContentSlots order.
func (p *UpdatePlan) contentOf(u *xqparse.UpdateQuery) []string {
	if len(p.ContentSlots) == 0 {
		return nil
	}
	raw := make([]string, len(p.ContentSlots))
	for i, s := range p.ContentSlots {
		raw[i] = s.element(u).TextContent()
	}
	return raw
}

// BindArgs extracts the literal tuple of a parsed instance of this
// template, in slot order — the bridge from "updates arriving as text"
// to the Execute fast path.
func (p *UpdatePlan) BindArgs(u *xqparse.UpdateQuery) []relational.Value {
	var args []relational.Value
	for _, pr := range u.Preds {
		for _, o := range [2]xqparse.PredOperand{pr.Left, pr.Right} {
			if o.IsLiteral {
				args = append(args, o.Lit)
			}
		}
	}
	return args
}

// derive computes the schema verdict of one instance of the template —
// predicate literals args, content texts raw — without touching base
// data, in the order the pipeline reaches its checks: literal coercion
// (resolution), the overlap test and the content values' leaf
// annotations (Step 1), then the STAR fold (Step 2), with the
// template-level halves paid once at compile time. The bound values come
// back whenever the instance's own values pass, even when the template
// is rejected (BlindApply translates regardless).
func (p *UpdatePlan) derive(args []relational.Value, raw []string) (*Result, bound, error) {
	if len(args) != len(p.Slots) {
		return nil, bound{}, fmt.Errorf("plan: template expects %d bind arguments, got %d", len(p.Slots), len(args))
	}
	b := bound{preds: make([]UserPred, len(p.Slots))}
	for i, s := range p.Slots {
		b.preds[i] = UserPred{Leaf: s.Leaf, Op: s.Op, Lit: args[i]}
		if err := b.preds[i].coerce(); err != nil {
			return invalidResult(err.Error()), bound{}, nil
		}
	}
	if err := validatePreds(b.preds); err != nil {
		return invalidResult(err.Error()), bound{}, nil
	}
	if len(raw) > 0 {
		b.content = make([]relational.Value, len(raw))
	}
	for i, s := range p.ContentSlots {
		v, err := leafValue(raw[i], s.Leaf)
		if err != nil {
			return invalidResult(err.Error()), bound{}, nil
		}
		b.content[i] = v
	}
	res := p.star
	if p.opInvalid != nil {
		res = p.opInvalid
	}
	return res.cloneShallow(), b, nil
}

// bindParsed derives the schema verdict of a parsed instance of p's
// template off the resident plan — no resolution, no STAR walk, no probe
// construction — and binds its values. A template that names something
// outside the view schema has nothing to bind against: its instances are
// re-resolved, which is cheap (resolution stops at the first failure)
// and reports the failure a literal of this instance may cause before
// the structural one.
func (e *Filter) bindParsed(p *UpdatePlan, u *xqparse.UpdateQuery) (*Result, bound, error) {
	if p.Resolved != nil {
		return p.derive(p.BindArgs(u), p.contentOf(u))
	}
	_, litErr, err := resolve(u, e.View)
	if litErr != nil {
		err = litErr
	}
	var re *resolveError
	if !errors.As(err, &re) {
		return nil, bound{}, fmt.Errorf("plan: instance of an unresolvable template resolved to %v", err)
	}
	return invalidResult(re.msg), bound{}, nil
}

// Verdict computes the schema-level verdict of the plan's template
// bound to a literal tuple (and the exemplar's content), without
// touching base data — the compiled-plan equivalent of Check.
func (e *Filter) Verdict(p *UpdatePlan, args []relational.Value) (*Result, error) {
	res, _, err := p.verdictArgs(args)
	return res, err
}

// verdictArgs binds a literal tuple beside the exemplar's content and
// returns the schema verdict plus the bound values.
func (p *UpdatePlan) verdictArgs(args []relational.Value) (*Result, bound, error) {
	if p.Resolved == nil {
		// Unresolvable template: the exemplar's verdict is all there is.
		return p.Verdict.cloneShallow(), bound{}, nil
	}
	return p.derive(args, p.exemplar)
}

// Execute binds a literal tuple into a compiled plan and runs the full
// pipeline against the database: the bound schema verdict, then Step
// 3's probes (through the plan's prepared statements), the translation
// of the exemplar's content and the statement execution under the
// configured strategy, as a group of one (its own transaction;
// conflicts retry with capped backoff, commits share flushes in the
// engine's writer stage). This is the execute-many half of
// compile-once/execute-many: no parsing, no resolution, no STAR walk, no
// probe construction.
func (e *Filter) Execute(p *UpdatePlan, args []relational.Value) (*Result, error) {
	res, b, err := p.verdictArgs(args)
	if err != nil || !res.Accepted {
		return res, err
	}
	return e.applyOne(&groupItem{res: res, p: p, b: b}, nil)
}

// groupItem is one accepted update of a group, carried through
// applyGroupWithRetry.
type groupItem struct {
	res  *Result
	p    *UpdatePlan
	b    bound
	err  error
	mark resultMark
	idx  int // position in a batch's input
}

// applyOne runs one accepted update as a group of one; tr, when
// non-nil, receives its stage spans.
func (e *Filter) applyOne(it *groupItem, tr *obs.Trace) (*Result, error) {
	e.applyGroupWithRetry([]*groupItem{it}, tr)
	if it.err != nil {
		return nil, it.err
	}
	return it.res, nil
}

// applyGroup executes the items inside ONE transaction with a
// savepoint per item: a rejected or failed item rolls back to its own
// savepoint without disturbing its siblings, and the single
// group-committed flush at the end covers the whole group. An item
// that loses a write-conflict race records ErrWriteConflict and rolls
// back to its savepoint; applyGroupWithRetry re-runs just those items
// in fresh rounds. tr, when non-nil, receives the stage spans.
func (e *Filter) applyGroup(items []*groupItem, tr *obs.Trace) {
	txn := e.Exec.DB.BeginTxn()
	committed := false
	defer func() {
		if !committed {
			txn.Rollback()
		}
	}()
	// failAll marks every item whose work is being discarded by the
	// whole-transaction rollback — earlier accepted items must not be
	// reported committed when the group aborts.
	failAll := func(err error) {
		for _, it := range items {
			it.res.Accepted = false
			if it.err == nil {
				it.err = err
			}
		}
	}
	anyAccepted := false
	for _, it := range items {
		mark := txn.Savepoint()
		it.res.Accepted = false
		rejected, err := e.runOps(&applyCtx{txn: txn, bound: it.b, trace: tr}, it.p, it.res)
		if err != nil || rejected {
			if rbErr := txn.RollbackTo(mark); rbErr != nil {
				// The transaction is no longer trustworthy; abort the
				// whole group and say so on every item.
				failAll(rbErr)
				return
			}
			it.err = err
			continue
		}
		it.res.Accepted = true
		anyAccepted = true
	}
	if !anyAccepted {
		// Every item rolled back to its savepoint: nothing to publish.
		// Skip the commit so an all-rejected (or all-conflicted retry)
		// round does not flush the WAL and advance the commit sequence
		// for zero committed work. The deferred rollback of the empty
		// transaction is free.
		return
	}
	if err := e.commit(txn, tr); err != nil {
		failAll(err)
		return
	}
	committed = true
}

// applyGroupWithRetry is the one way this package writes an update.
// It drives applyGroup rounds: the first round runs every item under
// one shared transaction; items that lost a write-conflict race (their
// savepoints rolled back, siblings committed) are re-run together in
// fresh rounds with capped backoff, preserving per-update atomicity
// throughout — an item is either committed whole by exactly one round
// or reported failed. Each item records its retry count once, when it
// leaves the loop.
func (e *Filter) applyGroupWithRetry(items []*groupItem, tr *obs.Trace) {
	for _, it := range items {
		it.mark = markResult(it.res)
	}
	pending := items
	for attempt := 0; len(pending) > 0; attempt++ {
		e.applyGroup(pending, tr)
		var conflicted []*groupItem
		for _, it := range pending {
			if !errors.Is(it.err, relational.ErrWriteConflict) {
				e.Obs.Retries.Record(int64(attempt))
				continue
			}
			if attempt == 0 {
				e.conflictApplies.Add(1)
			}
			conflicted = append(conflicted, it)
		}
		if len(conflicted) == 0 {
			return
		}
		if attempt+1 >= e.maxWriteRetries() {
			for _, it := range conflicted {
				e.conflictErrors.Add(1)
				e.Obs.Retries.Record(int64(attempt))
				it.err = fmt.Errorf("plan: apply lost %d write-conflict races: %w", attempt+1, it.err)
			}
			return
		}
		for _, it := range conflicted {
			e.txnRetries.Add(1)
			it.err = nil
			it.mark.restore(it.res)
		}
		endBackoff := tr.StartSpan("conflict_backoff")
		conflictBackoff(attempt)
		endBackoff()
		pending = conflicted
	}
}

// ApplyBatch runs a slice of updates through the full pipeline under
// group commit: every update is schema-checked (through the plan
// cache), the accepted ones execute inside one shared transaction with
// per-update savepoints, and a single commit flushes the write-ahead
// log once for the whole batch. Results arrive in input order; a
// rejected or failed update leaves the database exactly as its
// siblings' updates (and nothing else) left it. Batches run
// concurrently with other batches and single applies: an update that
// loses a write-conflict race to a concurrent writer is retried in a
// follow-up round without disturbing its committed siblings.
func (e *Filter) ApplyBatch(updates []string) []BatchResult {
	out := make([]BatchResult, len(updates))
	items := make([]*groupItem, 0, len(updates))
	for i, text := range updates {
		out[i].Index = i
		res, p, b, err := e.admit(text, nil)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Result = res
		if res.Accepted {
			items = append(items, &groupItem{res: res, p: p, b: b, idx: i})
		}
	}
	e.applyGroupWithRetry(items, nil)
	for _, it := range items {
		if it.err != nil {
			out[it.idx] = BatchResult{Index: it.idx, Err: it.err}
		}
	}
	return out
}
