package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/relational"
	"repro/internal/ufilter"
)

// handleMetrics renders every view's counters as Prometheus-style
// text (gauge/counter lines with a view label), hand-rolled so the
// daemon stays dependency-free.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	type metric struct {
		name, help, kind string
		values           map[string]float64 // label value -> sample
	}
	metrics := []metric{
		{"ufilterd_checks_total", "Schema-level checks served.", "counter", map[string]float64{}},
		{"ufilterd_check_errors_total", "Checks that failed to parse or errored.", "counter", map[string]float64{}},
		{"ufilterd_applies_total", "Full-pipeline applies executed.", "counter", map[string]float64{}},
		{"ufilterd_applies_accepted_total", "Applies accepted and committed.", "counter", map[string]float64{}},
		{"ufilterd_applies_rejected_total", "Applies rejected by the pipeline.", "counter", map[string]float64{}},
		{"ufilterd_apply_batches_total", "Group-commit apply-batch calls.", "counter", map[string]float64{}},
		{"ufilterd_apply_queue_shed_total", "Applies shed with 429 by the concurrency limiter.", "counter", map[string]float64{}},
		{"ufilterd_apply_queue_depth", "Apply concurrency limiter capacity.", "gauge", map[string]float64{}},
		{"ufilterd_apply_queue_in_flight", "Apply slots currently held.", "gauge", map[string]float64{}},
		{"ufilterd_apply_conflict_409_total", "Applies answered 409 after exhausting conflict retries.", "counter", map[string]float64{}},
		{"ufilterd_txn_conflicts_total", "Write-write conflicts detected by the engine (first-updater-wins losers).", "counter", map[string]float64{}},
		{"ufilterd_txn_retries_total", "Apply attempts re-run after a write-write conflict.", "counter", map[string]float64{}},
		{"ufilterd_txns_active", "Transactions currently open.", "gauge", map[string]float64{}},
		{"ufilterd_txns_started_total", "Transactions ever begun (including autocommit statements).", "counter", map[string]float64{}},
		{"ufilterd_group_commits_total", "Commit groups published (one WAL flush each).", "counter", map[string]float64{}},
		{"ufilterd_grouped_txns_total", "Transactions committed through commit groups.", "counter", map[string]float64{}},
		{"ufilterd_cache_hits_total", "Checks and applies answered off a resident plan (stored text verdict or bind-time derivation).", "counter", map[string]float64{}},
		{"ufilterd_cache_misses_total", "Template compilations (the plan cache's only kind of miss).", "counter", map[string]float64{}},
		{"ufilterd_cache_hit_rate", "hits/(hits+misses); ~1 once the traffic's templates are resident, whatever the values.", "gauge", map[string]float64{}},
		{"ufilterd_plan_cache_plans", "Compiled update plans currently cached: one per update template.", "gauge", map[string]float64{}},
		{"ufilterd_plan_applies_total", "Applies executed off a cached compiled plan.", "counter", map[string]float64{}},
		{"ufilterd_rows_scanned_total", "Rows visited by table scans.", "counter", map[string]float64{}},
		{"ufilterd_index_probes_total", "Index lookups issued.", "counter", map[string]float64{}},
		{"ufilterd_statements_executed_total", "DML statements executed.", "counter", map[string]float64{}},
		{"ufilterd_redo_records_total", "Write-ahead log records appended.", "counter", map[string]float64{}},
		{"ufilterd_redo_bytes_total", "Write-ahead log bytes appended.", "counter", map[string]float64{}},
		{"ufilterd_redo_flushes_total", "Write-ahead log flushes (group commit amortizes these).", "counter", map[string]float64{}},
		{"ufilterd_wal_segments", "Durable WAL segment files currently live (0 without -data-dir).", "gauge", map[string]float64{}},
		{"ufilterd_wal_bytes_total", "Bytes appended to durable WAL segments.", "counter", map[string]float64{}},
		{"ufilterd_wal_fsyncs_total", "fsync calls issued by the durable WAL (one per commit group).", "counter", map[string]float64{}},
		{"ufilterd_wal_checkpoints_total", "Durable WAL checkpoints installed.", "counter", map[string]float64{}},
		{"ufilterd_wal_recovery_replayed_txns", "Committed transactions replayed from the WAL at startup.", "gauge", map[string]float64{}},
		{"ufilterd_wal_recycled_segments_total", "Active-segment opens served from the preallocated recycle pool.", "counter", map[string]float64{}},
		{"ufilterd_wal_pipeline_depth", "Commit groups queued or in flight in the WAL writer stage.", "gauge", map[string]float64{}},
		{"ufilterd_checkpoint_delta_chain_len", "Incremental checkpoint deltas layered on the base image (worst shard).", "gauge", map[string]float64{}},
		{"ufilterd_checkpoint_last_pause_seconds", "Duration of the most recent checkpoint pass (worst shard).", "gauge", map[string]float64{}},
		{"ufilterd_pagecache_hits_total", "Buffer-pool page reads served from memory.", "counter", map[string]float64{}},
		{"ufilterd_pagecache_misses_total", "Buffer-pool page reads that faulted from disk.", "counter", map[string]float64{}},
		{"ufilterd_pagecache_evictions_total", "Buffer-pool frames evicted to stay within the budget.", "counter", map[string]float64{}},
		{"ufilterd_pages_total", "Live pages in the checkpoint page store.", "gauge", map[string]float64{}},
		{"ufilterd_compaction_pages_written_total", "Pages written by checkpoint passes and directory folds.", "counter", map[string]float64{}},
		{"ufilterd_snapshots_active", "MVCC snapshots currently pinned.", "gauge", map[string]float64{}},
		{"ufilterd_snapshots_opened_total", "MVCC snapshots ever pinned.", "counter", map[string]float64{}},
		{"ufilterd_versions_reclaimed_total", "Row versions freed by the MVCC reclaimer.", "counter", map[string]float64{}},
		{"ufilterd_version_reclaims_total", "MVCC reclaim passes (inline and background).", "counter", map[string]float64{}},
		{"ufilterd_row_versions", "Row versions currently stored, including history.", "gauge", map[string]float64{}},
		{"ufilterd_version_chain_depth_max", "Longest row version chain (1 = no history).", "gauge", map[string]float64{}},
		{"ufilterd_rows_total", "Rows visible through a snapshot pinned for this scrape.", "gauge", map[string]float64{}},
		{"ufilterd_commit_seq", "Last committed MVCC sequence number.", "gauge", map[string]float64{}},
		{"ufilterd_shards", "Storage shards backing the view (1 = unsharded).", "gauge", map[string]float64{}},
	}
	var shardStats []struct {
		view  string
		stats []relational.ShardStat
	}
	for _, v := range s.Registry.Views() {
		st := v.Stats()
		samples := []float64{
			float64(st.Checks),
			float64(st.CheckErrors),
			float64(st.Applies.Total),
			float64(st.Applies.Accepted),
			float64(st.Applies.Rejected),
			float64(st.Applies.Batches),
			float64(st.Queue.Shed),
			float64(st.Queue.Depth),
			float64(st.Queue.InFlight),
			float64(st.Applies.Conflicted),
			float64(st.TxnConflictsTotal),
			float64(st.TxnRetriesTotal),
			float64(st.TxnsActive),
			float64(st.Filter.Database.TxnsStarted),
			float64(st.Filter.Write.GroupCommits),
			float64(st.Filter.Write.GroupedTxns),
			float64(st.Filter.Cache.Hits),
			float64(st.Filter.Cache.Misses),
			st.CacheHitRate,
			float64(st.Filter.Cache.Plans),
			float64(st.Filter.Cache.PlanApplies),
			float64(st.Filter.Executor.RowsScanned),
			float64(st.Filter.Executor.IndexProbes),
			float64(st.Filter.Database.StatementsExecuted),
			float64(st.Filter.Database.RedoRecords),
			float64(st.Filter.Database.RedoBytes),
			float64(st.Filter.Database.RedoFlushes),
			float64(st.Filter.Database.WALSegments),
			float64(st.Filter.Database.WALBytes),
			float64(st.Filter.Database.Fsyncs),
			float64(st.Filter.Database.Checkpoints),
			float64(st.Filter.Database.RecoveryReplayedTxns),
			float64(st.Filter.Database.WALRecycledSegments),
			float64(st.Filter.Database.WALPipelineDepth),
			float64(st.Filter.Database.CheckpointDeltaChainLen),
			float64(st.Filter.Database.CheckpointLastPauseNs) / 1e9,
			float64(st.Filter.Database.PagecacheHits),
			float64(st.Filter.Database.PagecacheMisses),
			float64(st.Filter.Database.PagecacheEvictions),
			float64(st.Filter.Database.PagesTotal),
			float64(st.Filter.Database.CompactionPagesWritten),
			float64(st.Versions.SnapshotsActive),
			float64(st.Versions.SnapshotsOpened),
			float64(st.Versions.VersionsReclaimed),
			float64(st.Versions.Reclaims),
			float64(st.Versions.Versions),
			float64(st.Versions.MaxChainDepth),
			float64(st.RowsTotal),
			float64(st.Versions.CommitSeq),
			float64(st.Shards),
		}
		for i := range metrics {
			metrics[i].values[v.Name] = samples[i]
		}
		if len(st.ShardStats) > 0 {
			shardStats = append(shardStats, struct {
				view  string
				stats []relational.ShardStat
			}{v.Name, st.ShardStats})
		}
	}
	for _, m := range metrics {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind)
		labels := make([]string, 0, len(m.values))
		for l := range m.values {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(&b, "%s{view=%q} %g\n", m.name, l, m.values[l])
		}
	}
	writeShardMetrics(&b, shardStats)
	s.writeHistograms(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// writeShardMetrics renders the per-shard series for sharded views as
// its own block ({view,shard}-labelled), decoupled from the
// order-sensitive samples array of the main table.
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
		{"ufilterd_shard_wal_fsyncs_total", "WAL fsyncs issued by the shard (parallel across shards).", "counter",
			func(s relational.ShardStat) float64 { return float64(s.Fsyncs) }},
		{"ufilterd_shard_group_commits_total", "Commit groups published on the shard.", "counter",
			func(s relational.ShardStat) float64 { return float64(s.GroupCommits) }},
		{"ufilterd_shard_commit_seq", "Shard-local committed sequence number.", "gauge",
			func(s relational.ShardStat) float64 { return float64(s.CommitSeq) }},
		{"ufilterd_shard_wal_recycled_segments_total", "Active-segment opens served from the shard's recycle pool.", "counter",
			func(s relational.ShardStat) float64 { return float64(s.WALRecycledSegments) }},
		{"ufilterd_shard_wal_pipeline_depth", "Commit groups queued or in flight in the shard's WAL writer stage.", "gauge",
			func(s relational.ShardStat) float64 { return float64(s.WALPipelineDepth) }},
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
			func(v *View) obs.Snapshot { return planHist(v).Compile.Snapshot() }},
		{"ufilterd_txn_retries_per_apply", "Conflict-retry attempts per finished apply (bucket 0 = conflict-free).",
			func(v *View) obs.Snapshot { return planHist(v).Retries.Snapshot() }},
		{"ufilterd_commit_wait_seconds", "Wait from group-commit enqueue to published acknowledgment, fsync included.",
			func(v *View) obs.Snapshot { return planHist(v).CommitWait.Snapshot() }},
		{"ufilterd_group_commit_txns", "Transactions coalesced per published commit group.",
			func(v *View) obs.Snapshot { return planHist(v).GroupSize.Snapshot() }},
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

// planHist fetches the view executor's engine-internal histogram set,
// substituting an empty one if observability was detached (the nil
// histograms inside snapshot to valid empty snapshots).
func planHist(v *View) *ufilter.ObsHists {
	if h := v.Filter.Obs; h != nil {
		return h
	}
	return &ufilter.ObsHists{}
}
