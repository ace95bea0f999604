package server

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/relational"
)

// viewMetrics is the per-view part of /metrics, one row per family: the
// name, help and kind it is exported under and how its sample is read
// off a view's stats. Name and value live in the same row, so adding or
// dropping a metric cannot shift another's value onto the wrong name.
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
	{"ufilterd_txn_conflicts_total", "Write-write conflicts detected by the engine (first-updater-wins losers).", "counter",
		func(st ViewStats) float64 { return float64(st.TxnConflictsTotal) }},
	{"ufilterd_txn_retries_total", "Apply attempts re-run after a write-write conflict.", "counter",
		func(st ViewStats) float64 { return float64(st.TxnRetriesTotal) }},
	{"ufilterd_txns_active", "Transactions currently open.", "gauge",
		func(st ViewStats) float64 { return float64(st.TxnsActive) }},
	{"ufilterd_txns_started_total", "Transactions ever begun (including autocommit statements).", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Database.TxnsStarted) }},
	{"ufilterd_group_commits_total", "Commit groups published, one flush each (with a WAL: one per fsynced writer-stage batch, whichever shards its records commit on).", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Database.GroupCommits) }},
	{"ufilterd_grouped_txns_total", "Transactions committed through commit groups (a cross-shard transaction counts once).", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Database.GroupedTxns) }},
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
	{"ufilterd_statements_executed_total", "DML statements executed.", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Database.StatementsExecuted) }},
	{"ufilterd_wal_segments", "Durable WAL segment files currently live (0 without -data-dir).", "gauge",
		func(st ViewStats) float64 { return float64(st.Filter.Database.WALSegments) }},
	{"ufilterd_wal_bytes_total", "Bytes appended to the view's durable WAL segments.", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Database.WALBytes) }},
	{"ufilterd_wal_fsyncs_total", "fsync calls issued by the view's durable WAL (commit batches, segment seals, checkpoint installs).", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Database.Fsyncs) }},
	{"ufilterd_wal_checkpoints_total", "Durable WAL checkpoints installed.", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Database.Checkpoints) }},
	{"ufilterd_wal_recovery_replayed_txns", "Committed transactions replayed from the WAL at startup.", "gauge",
		func(st ViewStats) float64 { return float64(st.Filter.Database.RecoveryReplayedTxns) }},
	{"ufilterd_wal_recycled_segments_total", "Active-segment opens served from the preallocated recycle pool.", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Database.WALRecycledSegments) }},
	{"ufilterd_wal_pipeline_depth", "Commit groups queued or in flight in the WAL writer stage.", "gauge",
		func(st ViewStats) float64 { return float64(st.Filter.Database.WALPipelineDepth) }},
	{"ufilterd_checkpoint_delta_chain_len", "Incremental checkpoint deltas layered on the base image (worst shard).", "gauge",
		func(st ViewStats) float64 { return float64(st.Filter.Database.CheckpointDeltaChainLen) }},
	{"ufilterd_checkpoint_last_pause_seconds", "Duration of the most recent checkpoint pass (worst shard).", "gauge",
		func(st ViewStats) float64 { return float64(st.Filter.Database.CheckpointLastPauseNs) / 1e9 }},
	{"ufilterd_pagecache_hits_total", "Buffer-pool page reads served from memory.", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Database.PagecacheHits) }},
	{"ufilterd_pagecache_misses_total", "Buffer-pool page reads that faulted from disk.", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Database.PagecacheMisses) }},
	{"ufilterd_pagecache_evictions_total", "Buffer-pool frames evicted to stay within the budget.", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Database.PagecacheEvictions) }},
	{"ufilterd_pages_total", "Live pages in the checkpoint page store.", "gauge",
		func(st ViewStats) float64 { return float64(st.Filter.Database.PagesTotal) }},
	{"ufilterd_compaction_pages_written_total", "Pages written by checkpoint passes and directory folds.", "counter",
		func(st ViewStats) float64 { return float64(st.Filter.Database.CompactionPagesWritten) }},
	{"ufilterd_snapshots_active", "MVCC snapshots currently pinned.", "gauge",
		func(st ViewStats) float64 { return float64(st.Versions.SnapshotsActive) }},
	{"ufilterd_snapshots_opened_total", "MVCC snapshots ever pinned.", "counter",
		func(st ViewStats) float64 { return float64(st.Versions.SnapshotsOpened) }},
	{"ufilterd_versions_reclaimed_total", "Row versions freed by the MVCC reclaimer.", "counter",
		func(st ViewStats) float64 { return float64(st.Versions.VersionsReclaimed) }},
	{"ufilterd_version_reclaims_total", "MVCC reclaim passes (inline and background).", "counter",
		func(st ViewStats) float64 { return float64(st.Versions.Reclaims) }},
	{"ufilterd_row_versions", "Row versions currently stored, including history.", "gauge",
		func(st ViewStats) float64 { return float64(st.Versions.Versions) }},
	{"ufilterd_version_chain_depth_max", "Longest row version chain (1 = no history).", "gauge",
		func(st ViewStats) float64 { return float64(st.Versions.MaxChainDepth) }},
	{"ufilterd_rows_total", "Rows visible through a snapshot pinned for this scrape.", "gauge",
		func(st ViewStats) float64 { return float64(st.RowsTotal) }},
	{"ufilterd_commit_seq", "Last committed MVCC sequence number.", "gauge",
		func(st ViewStats) float64 { return float64(st.Versions.CommitSeq) }},
	{"ufilterd_shards", "Storage shards backing the view (1 = unsharded).", "gauge",
		func(st ViewStats) float64 { return float64(st.Shards) }},
}

// handleMetrics renders every view's counters as Prometheus-style
// text (gauge/counter lines with a view label), hand-rolled so the
// daemon stays dependency-free.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	views := s.Registry.Views() // sorted by name
	stats := make([]ViewStats, len(views))
	var shardStats []struct {
		view  string
		stats []relational.ShardStat
	}
	for i, v := range views {
		stats[i] = v.Stats()
		if len(stats[i].ShardStats) > 0 {
			shardStats = append(shardStats, struct {
				view  string
				stats []relational.ShardStat
			}{v.Name, stats[i].ShardStats})
		}
	}
	for _, m := range viewMetrics {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind)
		for i, v := range views {
			fmt.Fprintf(&b, "%s{view=%q} %g\n", m.name, v.Name, m.sample(stats[i]))
		}
	}
	writeShardMetrics(&b, shardStats)
	s.writeHistograms(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// writeShardMetrics renders the per-shard series for sharded views as
// its own block ({view,shard}-labelled).
func writeShardMetrics(b *strings.Builder, perView []struct {
	view  string
	stats []relational.ShardStat
}) {
	if len(perView) == 0 {
		return
	}
	families := []struct {
		name, help, kind string
		sample           func(relational.ShardStat) float64
	}{
		{"ufilterd_shard_rows_total", "Visible rows stored on the shard.", "gauge",
			func(s relational.ShardStat) float64 { return float64(s.Rows) }},
		{"ufilterd_shard_txn_conflicts_total", "Write-write conflicts detected on the shard.", "counter",
			func(s relational.ShardStat) float64 { return float64(s.Conflicts) }},
		{"ufilterd_shard_commit_seq", "Shard-local committed sequence number.", "gauge",
			func(s relational.ShardStat) float64 { return float64(s.CommitSeq) }},
		{"ufilterd_shard_checkpoint_delta_chain_len", "Incremental checkpoint deltas layered on the shard's base image.", "gauge",
			func(s relational.ShardStat) float64 { return float64(s.CheckpointDeltaChainLen) }},
		{"ufilterd_shard_checkpoint_last_pause_seconds", "Duration of the shard's most recent checkpoint pass.", "gauge",
			func(s relational.ShardStat) float64 { return float64(s.CheckpointLastPauseNs) / 1e9 }},
		{"ufilterd_shard_pagecache_hits_total", "Buffer-pool page reads served from the shard's pool.", "counter",
			func(s relational.ShardStat) float64 { return float64(s.PagecacheHits) }},
		{"ufilterd_shard_pagecache_misses_total", "Buffer-pool page reads the shard faulted from disk.", "counter",
			func(s relational.ShardStat) float64 { return float64(s.PagecacheMisses) }},
		{"ufilterd_shard_pagecache_evictions_total", "Frames evicted from the shard's buffer pool.", "counter",
			func(s relational.ShardStat) float64 { return float64(s.PagecacheEvictions) }},
		{"ufilterd_shard_pages_total", "Live pages in the shard's checkpoint page store.", "gauge",
			func(s relational.ShardStat) float64 { return float64(s.PagesTotal) }},
	}
	for _, f := range families {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, pv := range perView {
			for _, ss := range pv.stats {
				fmt.Fprintf(b, "%s{view=%q,shard=\"%d\"} %g\n", f.name, pv.view, ss.Shard, f.sample(ss))
			}
		}
	}
}

// writeHistograms renders the latency/size histogram families in the
// Prometheus histogram exposition format (cumulative _bucket lines,
// _sum, _count). Request latency carries a per-endpoint label; the
// engine-internal families are per view only.
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

	engine := []struct {
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
		{"ufilterd_wal_fsync_seconds", "Durable WAL fsync duration per commit group (empty without -data-dir).",
			func(v *View) obs.Snapshot { return v.Filter.Exec.DB.FsyncHistogram() }},
		{"ufilterd_checkpoint_pause_seconds", "Checkpoint pass duration — O(dirty) under incremental checkpoints (empty without -data-dir).",
			func(v *View) obs.Snapshot { return v.Filter.Exec.DB.CheckpointPauseHistogram() }},
	}
	for _, h := range engine {
		obs.WritePromHeader(b, h.name, h.help)
		for _, v := range views {
			obs.WriteProm(b, h.name, fmt.Sprintf("view=%q", v.Name), h.snap(v))
		}
	}
}
