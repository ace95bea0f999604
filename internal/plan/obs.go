package plan

import (
	"repro/internal/obs"
)

// ObsHists bundles the engine-internal distributions an Executor
// records when observability is attached (the default): plan compile
// latency, conflict retries per apply and commit wait. The per-request end-to-end latency histograms live one
// layer up, in the server, which owns the request boundary.
//
// A nil *ObsHists (after DetachObs) records nothing and skips even the
// clock reads, which is what the obs benchmark's uninstrumented
// baseline measures against.
type ObsHists struct {
	// Compile records the duration of full plan compilations
	// (resolve + STAR + artifact preparation) — cache misses only, so
	// the distribution shows what each new template costs.
	Compile *obs.Histogram
	// Retries records, per finished apply, how many times it was re-run
	// after a write-write conflict (bucket 0 = conflict-free).
	Retries *obs.Histogram
	// CommitWait records each transaction's wait inside Commit, from the
	// call to the published acknowledgment, fsync included.
	CommitWait *obs.Histogram
}

// newObsHists builds the standard attached set.
func newObsHists() *ObsHists {
	return &ObsHists{
		Compile:    obs.NewDurationHistogram(),
		Retries:    obs.NewCountHistogram(),
		CommitWait: obs.NewDurationHistogram(),
	}
}

// DetachObs removes the executor's engine-internal histograms so the
// hot paths skip their clock reads entirely. Benchmark use only (the
// RunObsBench baseline); set-up time only, not safe under traffic.
func (e *Executor) DetachObs() {
	e.Obs = nil
}

// AttachObs installs a fresh engine-internal histogram set after a
// DetachObs. Benchmark use only (RunObsBench toggles instrumentation
// on one pipeline to isolate its cost); not safe under traffic.
func (e *Executor) AttachObs() {
	if e.Obs == nil {
		e.Obs = newObsHists()
	}
}
