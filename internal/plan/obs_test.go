package plan

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// TestExecutorObsHistograms: an executor built by NewExecutor records
// compile time on cache misses, retry counts per apply and commit-wait
// samples per commit.
func TestExecutorObsHistograms(t *testing.T) {
	e := newBookExec(t)
	if _, err := e.Check(delReviewsDataOnTheWeb); err != nil {
		t.Fatal(err)
	}
	if got := e.Obs.Compile.Snapshot().Count; got == 0 {
		t.Error("compile histogram empty after a cache-miss Check")
	}
	res, err := e.Apply(insertReviewDataOnTheWeb(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("rejected: %s", res.Reason)
	}
	if got := e.Obs.Retries.Snapshot().Count; got != 1 {
		t.Errorf("retries histogram count = %d, want 1 (one finished apply)", got)
	}
	if got := e.Obs.CommitWait.Snapshot().Count; got != 1 {
		t.Errorf("commit-wait histogram count = %d, want 1", got)
	}
}

// TestBatchRecordsRetries: the retries histogram takes one sample per
// finished apply, and a batch item is a finished apply too.
func TestBatchRecordsRetries(t *testing.T) {
	e := newBookExec(t)
	before := e.Obs.Retries.Snapshot().Count
	batch := make([]string, 4)
	for i := range batch {
		batch[i] = insertReviewDataOnTheWeb(20 + i)
	}
	for i, r := range e.ApplyBatch(batch) {
		if r.Err != nil || !r.Result.Accepted {
			t.Fatalf("update %d: %v %+v", i, r.Err, r.Result)
		}
	}
	if got := e.Obs.Retries.Snapshot().Count - before; got != 4 {
		t.Errorf("retries histogram grew by %d, want 4 (one per batch item)", got)
	}
}

// TestApplyContextTrace: a traced ApplyContext records the pipeline
// stages and every span fits inside the finished trace's total.
func TestApplyContextTrace(t *testing.T) {
	e := newBookExec(t)
	tr := obs.StartTrace("apply")
	ctx := obs.WithTrace(context.Background(), tr)
	res, err := e.ApplyContext(ctx, insertReviewDataOnTheWeb(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("rejected: %s", res.Reason)
	}
	tr.Finish()
	ts := tr.Summary()
	if ts.TotalNs <= 0 {
		t.Fatal("trace has no total")
	}
	stages := map[string]bool{}
	for _, s := range ts.Spans {
		stages[s.Stage] = true
		if s.DurNs < 0 || s.StartNs < 0 || s.StartNs > ts.TotalNs {
			t.Errorf("span %q out of range: %+v (total %d)", s.Stage, s, ts.TotalNs)
		}
	}
	for _, want := range []string{"parse", "compile", "context_check", "translate", "execute", "commit_publish"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (got %v)", want, stages)
		}
	}
	// Pipeline stages are sequential, so their durations must sum to no
	// more than the end-to-end total (the acceptance criterion).
	var sum int64
	for _, s := range ts.Spans {
		sum += s.DurNs
	}
	if sum > ts.TotalNs {
		t.Errorf("span sum %d exceeds end-to-end total %d", sum, ts.TotalNs)
	}
}

// TestCheckContextUntracedIsNoop: CheckContext without a trace attached
// behaves exactly like Check.
func TestCheckContextUntracedIsNoop(t *testing.T) {
	e := newBookExec(t)
	res, err := e.CheckContext(context.Background(), delReviewsDataOnTheWeb)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("rejected: %s", res.Reason)
	}
}
