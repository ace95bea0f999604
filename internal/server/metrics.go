package server

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/relational"
)

// viewMetrics is the server's and the plan layer's part of /metrics,
// one row per family: the name, help and kind it is exported under and
// how its sample is read off a view's stats. The engine's families are
// declared on the relational statistics structs' fields and rendered by
// relational.WriteStats under the same "ufilterd_" prefix.
var viewMetrics = []struct {
	name, help, kind string
	sample           func(ViewStats) float64
}{
	{"ufilterd_checks_total", "Schema-level checks served.", "counter",
		func(st ViewStats) float64 { return float64(st.Checks) }},
	{"ufilterd_check_errors_total", "Checks that failed to parse or errored.", "counter",
		func(st ViewStats) float64 { return float64(st.CheckErrors) }},
	{"ufilterd_applies_total", "Full-pipeline applies executed.", "counter",
		func(st ViewStats) float64 { return float64(st.Applies.Total) }},
	{"ufilterd_applies_accepted_total", "Applies accepted and committed.", "counter",
		func(st ViewStats) float64 { return float64(st.Applies.Accepted) }},
	{"ufilterd_applies_rejected_total", "Applies rejected by the pipeline.", "counter",
		func(st ViewStats) float64 { return float64(st.Applies.Rejected) }},
	{"ufilterd_apply_batches_total", "Group-commit apply-batch calls.", "counter",
		func(st ViewStats) float64 { return float64(st.Applies.Batches) }},
	{"ufilterd_apply_queue_shed_total", "Applies shed with 429 by the concurrency limiter.", "counter",
		func(st ViewStats) float64 { return float64(st.Queue.Shed) }},
	{"ufilterd_apply_queue_depth", "Apply concurrency limiter capacity.", "gauge",
		func(st ViewStats) float64 { return float64(st.Queue.Depth) }},
	{"ufilterd_apply_queue_in_flight", "Apply slots currently held.", "gauge",
		func(st ViewStats) float64 { return float64(st.Queue.InFlight) }},
	{"ufilterd_apply_conflict_409_total", "Applies answered 409 after exhausting conflict retries.", "counter",
		func(st ViewStats) float64 { return float64(st.Applies.Conflicted) }},
	{"ufilterd_txn_retries_total", "Apply attempts re-run after a write-write conflict.", "counter",
		func(st ViewStats) float64 { return float64(st.TxnRetriesTotal) }},
	{"ufilterd_cache_hits_total", "Checks and applies answered off a resident plan (stored text verdict or bind-time derivation).", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Cache.Hits) }},
	{"ufilterd_cache_misses_total", "Template compilations (the plan cache's only kind of miss).", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Cache.Misses) }},
	{"ufilterd_cache_hit_rate", "hits/(hits+misses); ~1 once the traffic's templates are resident, whatever the values.", "gauge",
		func(st ViewStats) float64 { return st.CacheHitRate }},
	{"ufilterd_plan_cache_plans", "Compiled update plans currently cached: one per update template.", "gauge",
		func(st ViewStats) float64 { return float64(st.Filter.Cache.Plans) }},
	{"ufilterd_plan_applies_total", "Applies executed off a cached compiled plan.", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Cache.PlanApplies) }},
	{"ufilterd_rows_scanned_total", "Rows visited by table scans.", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Executor.RowsScanned) }},
	{"ufilterd_index_probes_total", "Index lookups issued.", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Executor.IndexProbes) }},
	{"ufilterd_rows_total", "Rows visible through a snapshot pinned for this scrape.", "gauge",
		func(st ViewStats) float64 { return float64(st.RowsTotal) }},
	{"ufilterd_shards", "Storage shards backing the view (1 = unsharded).", "gauge",
		func(st ViewStats) float64 { return float64(st.Shards) }},
}

// handleMetrics renders every view's counters as Prometheus-style
// text (gauge/counter lines with a view label, per-shard series for
// sharded views), hand-rolled so the daemon stays dependency-free.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	views := s.Registry.Views() // sorted by name
	stats := make([]ViewStats, len(views))
	var (
		db       []relational.StatSeries[relational.DBStats]
		versions []relational.StatSeries[relational.VersionStats]
		shards   []relational.StatSeries[relational.ShardStat]
	)
	for i, v := range views {
		stats[i] = v.Stats()
		label := fmt.Sprintf("view=%q", v.Name)
		db = append(db, relational.StatSeries[relational.DBStats]{Labels: label, Stats: stats[i].Filter.Database})
		versions = append(versions, relational.StatSeries[relational.VersionStats]{Labels: label, Stats: stats[i].Versions})
		for _, sh := range stats[i].ShardStats {
			shards = append(shards, relational.StatSeries[relational.ShardStat]{Labels: label, Stats: sh})
		}
	}
	for _, m := range viewMetrics {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind)
		for i, v := range views {
			fmt.Fprintf(&b, "%s{view=%q} %g\n", m.name, v.Name, m.sample(stats[i]))
		}
	}
	relational.WriteStats(&b, "ufilterd_", false, db)
	relational.WriteStats(&b, "ufilterd_", false, versions)
	relational.WriteStats(&b, "ufilterd_shard_", true, shards)
	s.writeHistograms(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// writeHistograms renders the server's and the plan layer's histogram
// families in the Prometheus histogram exposition format (cumulative
// _bucket lines, _sum, _count). Request latency carries a per-endpoint
// label; the others are per view only. (The log's fsync and checkpoint
// pause histograms are DBStats fields.)
func (s *Server) writeHistograms(b *strings.Builder) {
	views := s.Registry.Views()

	obs.WritePromHeader(b, "ufilterd_request_duration_seconds", "End-to-end request latency per endpoint.")
	for _, v := range views {
		endpoints := []struct {
			name string
			h    *obs.Histogram
		}{
			{"check", v.checkHist},
			{"check-batch", v.checkBatchHist},
			{"apply", v.applyHist},
			{"apply-batch", v.applyBatchHist},
		}
		for _, ep := range endpoints {
			labels := fmt.Sprintf("view=%q,endpoint=%q", v.Name, ep.name)
			obs.WriteProm(b, "ufilterd_request_duration_seconds", labels, ep.h.Snapshot())
		}
	}

	perView := []struct {
		name, help string
		snap       func(v *View) obs.Snapshot
	}{
		{"ufilterd_apply_latency_seconds", "End-to-end single-apply latency (the Retry-After p90 source).",
			func(v *View) obs.Snapshot { return v.applyHist.Snapshot() }},
		{"ufilterd_plan_compile_seconds", "Full plan compilation time (one per template: resolve + STAR + artifacts).",
			func(v *View) obs.Snapshot { return v.Filter.Obs.Compile.Snapshot() }},
		{"ufilterd_txn_retries_per_apply", "Conflict-retry attempts per finished apply (bucket 0 = conflict-free).",
			func(v *View) obs.Snapshot { return v.Filter.Obs.Retries.Snapshot() }},
		{"ufilterd_commit_wait_seconds", "Wait inside an apply's Commit, from the call to the published acknowledgment, fsync included.",
			func(v *View) obs.Snapshot { return v.Filter.Obs.CommitWait.Snapshot() }},
	}
	for _, h := range perView {
		obs.WritePromHeader(b, h.name, h.help)
		for _, v := range views {
			obs.WriteProm(b, h.name, fmt.Sprintf("view=%q", v.Name), h.snap(v))
		}
	}
}
