package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// tracedPhases is the per-layer half of a run, on the daemon's existing
// surfaces only: a window at half the run length with before/after
// scrapes of /stats and /metrics (and a 1 Hz sample of the last
// checkpoint pause), then a shorter window with X-UFilter-Trace: 1 on
// every request for the obs metrics.
func (e *env) tracedPhases(w *workload, st *stack, res *runResult, window time.Duration) error {
	before, err := st.d.scrapeAll(st.views)
	if err != nil {
		return err
	}
	wireWindow := window / 2
	// Only checkpoints that ran inside the window count towards the pause.
	ckptBase, _ := lookup(before.views["tpch"], "filter.database.checkpoints_total")
	var pauseMaxNs float64
	pauseOK := true
	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				s, err := st.d.scrapeStats([]string{"tpch"})
				if err != nil {
					continue // a missed sample only narrows the max
				}
				v, ok := lookup(s.views["tpch"], "filter.database.checkpoint_last_pause_ns")
				n, okN := lookup(s.views["tpch"], "filter.database.checkpoints_total")
				pauseOK = pauseOK && ok && okN
				if n > ckptBase && v > pauseMaxNs {
					pauseMaxNs = v
				}
			}
		}
	}()
	load := st.ld.runFor(st.gens, wireWindow)
	close(stopSampler)
	sampler.Wait()
	after, err := st.d.scrapeAll(st.views)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = load.attempted, load.failed
	for _, f := range load.failures {
		res.problem("request failed: %s", f)
	}
	wireMetrics(w, res, before, after, load)
	res.addMaybe("relational.checkpoint_pause_max_ms", "ms", pauseMaxNs/1e6, pauseOK)

	st.ld.traced = true
	tracedLoad := st.ld.runFor(st.gens, window/4)
	st.ld.traced = false
	res.Attempted += tracedLoad.attempted
	res.Failed += tracedLoad.failed
	for _, f := range tracedLoad.failures {
		res.problem("traced request failed: %s", f)
	}
	untraced := float64(load.okCount()) / wireWindow.Seconds()
	tracedRate := float64(tracedLoad.okCount()) / (window / 4).Seconds()
	res.addMaybe("obs.trace_overhead_fraction", "ratio", 1-tracedRate/untraced, untraced > 0)
	res.addMaybe("obs.span_coverage", "ratio",
		float64(tracedLoad.spanUnionNs)/float64(tracedLoad.spanTotalNs), tracedLoad.spanTotalNs > 0)
	return nil
}

// wireMetrics derives the [wire] and [client] per-layer metrics from
// the counter deltas across one window. Each is a ratio per request,
// per apply or per accepted apply as its name says; a ratio over an
// empty base is 0 (the layer did nothing), a missing source is null.
func wireMetrics(w *workload, res *runResult, before, after *scrape, load *loadResult) {
	delta := func(path string) (float64, bool) {
		a, okA := after.sum(path)
		b, okB := before.sum(path)
		return a - b, okA && okB
	}
	per := func(name, unit, numPath string, den float64, denOK bool) {
		num, ok := delta(numPath)
		v := 0.0
		if den > 0 {
			v = num / den
		}
		res.addMaybe(name, unit, v, ok && denOK)
	}
	ops := float64(load.okCount())
	applyReqs := 0.0 // /apply and /apply-batch requests sent
	for _, s := range load.samples {
		if s.class != clsCheck {
			applyReqs++
		}
	}
	accepted, accOK := delta("applies.accepted")
	applies, appOK := delta("applies.total")
	batches, batOK := delta("applies.batches")
	rejected, rejOK := delta("applies.rejected")
	// Requests that committed: every batch the generator sends commits two
	// accepted updates as one request; every other accepted apply is its
	// own request.
	committed := accepted - batches
	commitOK := accOK && batOK

	per("server.shed_fraction", "ratio", "queue.shed", applyReqs, true)
	per("server.conflict_fraction", "ratio", "applies.conflicted", applyReqs, true)
	// The tail beyond the end-to-end p95s, as measured: p99 as the
	// median of six slices, p99.9 and max over the whole window.
	for class := uint8(0); class < nClasses; class++ {
		p99, n := sliceQuantileMedian(load.samples, class, load.windowNs, 6, 0.99, nil)
		res.add("client."+classNames[class]+"_p99_ms", "ms", p99, n)
	}
	checks, singles := classLatencies(load.samples, clsCheck), classLatencies(load.samples, clsApply)
	res.add("server.check_p999_ms", "ms", percentile(checks, 0.999), len(checks))
	res.add("server.apply_p999_ms", "ms", percentile(singles, 0.999), len(singles))
	res.add("server.apply_max_ms", "ms", percentile(singles, 1), len(singles))
	refMean, _ := speedFactors(load.refDurations(0, math.MaxInt64))
	res.add("machine.ref_unit_us", "us", refMean*refNominalNs/1e3, len(load.refs))
	res.add("client.failed_fraction", "ratio", float64(load.failed)/float64(max(load.attempted, 1)), load.attempted)
	res.addMaybe("client.rejected_apply_fraction", "ratio", rejected/max(applies, 1), rejOK && appOK)

	hits, okH := delta("filter.cache.hits")
	misses, okM := delta("filter.cache.misses")
	res.addMaybe("plan.cache_hit_rate", "ratio", hits/max(hits+misses, 1), okH && okM)
	plans, okP := after.sum("filter.cache.plans")
	res.addMaybe("plan.plans_resident", "count", plans, okP)
	per("plan.retries_per_apply", "1/apply", "txn_retries_total", applies, appOK)

	per("sqlexec.rows_scanned_per_op", "1/op", "filter.executor.rows_scanned", ops, true)
	per("sqlexec.index_probes_per_op", "1/op", "filter.executor.index_probes", ops, true)
	per("sqlexec.statements_per_apply", "1/apply", "filter.database.statements_executed", accepted, accOK)

	per("relational.fsyncs_per_apply", "1/apply", "filter.database.fsyncs_total", accepted, accOK)
	groups, okG := delta("filter.database.group_commits")
	per("relational.txns_per_group", "1/group", "filter.database.grouped_txns", groups, okG)
	per("relational.wal_bytes_per_apply", "B/apply", "filter.database.wal_bytes", accepted, accOK)
	per("relational.conflicts_per_apply", "1/apply", "filter.database.conflicts", applies, appOK)
	histQ := func(name, family string, p float64) {
		a, b := after.hists[family], before.hists[family]
		if a == nil || b == nil || len(a.cum) != len(b.cum) {
			res.addMaybe(name, "ms", 0, false)
			return
		}
		d := make([]float64, len(a.cum))
		for i := range d {
			d[i] = a.cum[i] - b.cum[i]
		}
		res.add(name, "ms", histQuantile(a.bounds, d, p)*1e3, int(d[len(d)-1]))
	}
	histQ("relational.fsync_p50_ms", "ufilterd_wal_fsync_seconds", 0.50)
	histQ("relational.fsync_p99_ms", "ufilterd_wal_fsync_seconds", 0.99)
	histQ("relational.commit_wait_p50_ms", "ufilterd_commit_wait_seconds", 0.50)
	ckpts, okC := delta("filter.database.checkpoints_total")
	res.addMaybe("relational.checkpoints", "count", ckpts, okC)

	// Per-shard figures; an unsharded view is its own single shard.
	shardDelta := func(field, fallback string) ([]float64, bool) {
		a, okA := after.shardValues("tpch", field, fallback)
		b, okB := before.shardValues("tpch", field, fallback)
		if !okA || !okB || len(a) != len(b) {
			return nil, false
		}
		for i := range a {
			a[i] -= b[i]
		}
		return a, true
	}
	seqs, okS := shardDelta("commit_seq", "filter.database.commit_seq")
	total := 0.0
	for _, v := range seqs {
		total += v
	}
	res.addMaybe("shard.shards_per_commit", "1/commit", total/max(committed, 1), okS && commitOK)
	fs, okF := shardDelta("fsyncs_total", "filter.database.fsyncs_total")
	res.addMaybe("shard.fsync_imbalance", "ratio", maxOverMean(fs), okF)
	rows, okR := after.shardValues("tpch", "rows_total", "rows_total")
	res.addMaybe("shard.row_imbalance", "ratio", maxOverMean(rows), okR)

	pHits, okPH := delta("filter.database.pagecache_hits")
	pMiss, okPM := delta("filter.database.pagecache_misses")
	res.addMaybe("pagestore.hit_rate", "ratio", pHits/max(pHits+pMiss, 1), okPH && okPM)
	per("pagestore.faults_per_op", "1/op", "filter.database.pagecache_misses", ops, true)
	per("pagestore.evictions_per_op", "1/op", "filter.database.pagecache_evictions", ops, true)
	per("pagestore.pages_written_per_apply", "1/apply", "filter.database.compaction_pages_written", accepted, accOK)
	ratio, okRatio := cacheRatio(w, after)
	res.addMaybe("pagestore.data_to_cache_ratio", "ratio", ratio, okRatio)

	// What each workload exists to exercise must actually have run.
	if v, ok := res.get("relational.fsyncs_per_apply"); ok && (v > 0) != w.Durable {
		res.problem("relational.fsyncs_per_apply is %g on a workload with durable=%v", v, w.Durable)
	}
	if v, ok := res.get("shard.shards_per_commit"); ok && w.Shards > 1 && (v < 1.4 || v > 1.6) {
		res.problem("shard.shards_per_commit is %g, want 1.4..1.6: batches are not crossing shards as placed", v)
	}
	if v, ok := res.get("pagestore.evictions_per_op"); ok && (v > 0) != (w.MinCacheRatio > 0) {
		res.problem("pagestore.evictions_per_op is %g on a workload with larger-than-cache=%v", v, w.MinCacheRatio > 0)
	}
}

// maxOverMean is the imbalance of a per-shard series: 1 when even, 0
// when the series is empty or all zero.
func maxOverMean(vals []float64) float64 {
	m := mean(vals)
	if m <= 0 {
		return 0
	}
	return slices.Max(vals) / m
}
