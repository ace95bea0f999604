package plan

import (
	"repro/internal/obs"
)

// ObsHists bundles the engine-internal distributions every Executor
// records: plan compile latency, conflict retries per apply and commit
// wait. The per-request end-to-end latency histograms live one layer
// up, in the server, which owns the request boundary.
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

func newObsHists() *ObsHists {
	return &ObsHists{
		Compile:    obs.NewDurationHistogram(),
		Retries:    obs.NewCountHistogram(),
		CommitWait: obs.NewDurationHistogram(),
	}
}
