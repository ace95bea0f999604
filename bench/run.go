package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/tpch"
)

// env is where a run finds its binary and keeps its files.
type env struct {
	bin     string // the ufilterd binary under test
	workDir string // scratch for configs and data dirs, inside the checkout
	outDir  string // where the drive pass writes <workload>.spans.json
	sizes   sizes
}

// sizes are the phase lengths that do not come from -seconds.
type sizes struct {
	setups   int // set-ups per run; setup_s is their median
	warm     int // warm-up requests per client, part of set-up
	driveOps int // generated ops per drive rung
	slices   int // window slices behind each p95
}

var (
	fullSizes  = sizes{setups: 5, warm: 1000, driveOps: 2000, slices: 6}
	smokeSizes = sizes{setups: 1, warm: 50, driveOps: 200, slices: 2}
)

// metric is one reported number. A nil Value means its source was
// missing from the daemon's statistics (reported as null, with a
// warning, never as a crash).
type metric struct {
	Name  string   `json:"name"`
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n,omitempty"` // samples behind a timing
	// Raw is the value as the clock gave it, for a metric reported on
	// the nominal machine (see refunit.go).
	Raw *float64 `json:"raw,omitempty"`
}

// runResult is one benchmark run: one workload, one seed, traced or not.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
	Warnings  []string `json:"warnings,omitempty"`
	Problems  []string `json:"problems,omitempty"`
}

func (r *runResult) add(name, unit string, v float64, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: &v, Unit: unit, N: n})
}

// addScaled records a timing both as measured and as scaled to the
// nominal machine; the scaled value is the metric.
func (r *runResult) addScaled(name, unit string, raw, scaled float64, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: &scaled, Unit: unit, N: n, Raw: &raw})
}

// addMaybe records a metric whose source may be missing.
func (r *runResult) addMaybe(name, unit string, v float64, ok bool) {
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
		r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit})
		r.Warnings = append(r.Warnings, name+": source missing from the daemon's statistics; reported as null")
		return
	}
	r.add(name, unit, v, 0)
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *runResult) get(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name && m.Value != nil {
			return *m.Value, true
		}
	}
	return 0, false
}

// stack is one booted, warmed daemon with its load generators.
type stack struct {
	d       *daemon
	ld      *loader
	gens    []*generator
	cfgPath string
	dataDir string // empty when in-memory
	views   []string
}

func (s *stack) stop() {
	s.ld.close()
	s.d.kill()
}

// setup boots a fresh daemon for the workload and warms it: spawn,
// /healthz (the daemon seeds its datasets before it listens), shard
// placement discovery when sharded, then a fixed number of warm-up
// requests per client. The elapsed time is one setup_s sample.
func (e *env) setup(w *workload, seed int64, dir string) (*stack, setupSample, error) {
	var none setupSample
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, none, err
	}
	cfg, err := json.Marshal(w.config())
	if err != nil {
		return nil, none, err
	}
	st := &stack{cfgPath: filepath.Join(dir, "config.json")}
	if err := os.WriteFile(st.cfgPath, cfg, 0o644); err != nil {
		return nil, none, err
	}
	if w.Durable {
		st.dataDir = filepath.Join(dir, "data")
	}
	for _, v := range w.Views {
		st.views = append(st.views, v.Name)
	}
	// The machine's speed around this set-up: reference units just
	// before the spawn, plus the ones the warm-up interleaves.
	var refs []int64
	for i := 0; i < 64; i++ {
		refs = append(refs, refUnit())
	}
	start := time.Now()
	st.d, err = startDaemon(e.bin, w, st.cfgPath, st.dataDir)
	if err != nil {
		return nil, none, err
	}
	st.ld = newLoader(st.d.base)
	var placement []int
	if w.Shards > 1 {
		if placement, err = discoverPlacement(st, w); err != nil {
			st.stop()
			return nil, none, err
		}
	}
	for c := 0; c < nClients; c++ {
		st.gens = append(st.gens, newGenerator(w, seed, c, nClients, placement))
	}
	warm := st.ld.runCount(st.gens, e.sizes.warm)
	if warm.failed > 0 {
		st.stop()
		return nil, none, fmt.Errorf("warm-up: %d of %d requests failed: %v", warm.failed, warm.attempted, warm.failures)
	}
	took := time.Since(start).Seconds()
	speed, _ := speedFactors(append(refs, warm.refDurations(0, math.MaxInt64)...))
	return st, setupSample{raw: took, scaled: took / speed}, nil
}

// setupSample is one set-up time, as measured and on the nominal machine.
type setupSample struct{ raw, scaled float64 }

// discoverPlacement finds which shard each of the five regions lives
// on, from outside: insert one lineitem under an order of the region,
// see which shard's commit_seq moved, delete it again. Lineitems follow
// their order's FK chain up to the region, so this is the placement of
// every row under that region.
func discoverPlacement(st *stack, w *workload) ([]int, error) {
	seqs := func() ([]float64, error) {
		s, err := st.d.scrapeStats([]string{"tpch"})
		if err != nil {
			return nil, err
		}
		v, ok := s.shardValues("tpch", "commit_seq", "filter.database.commit_seq")
		if !ok || len(v) != w.Shards {
			return nil, fmt.Errorf("placement: /stats has no per-shard commit_seq for %d shards", w.Shards)
		}
		return v, nil
	}
	placement := make([]int, 5)
	distinct := make(map[int]bool)
	for region := 0; region < 5; region++ {
		before, err := seqs()
		if err != nil {
			return nil, err
		}
		k := key{int64(region), 900} // order r sits under region r (see shardOfOrder)
		for _, u := range []update{insertOf(k), deleteOf(k)} {
			req := request{class: clsApply, view: "tpch", updates: []update{u}}
			if _, reason, _ := st.ld.do(&req, &loadResult{}); reason != "" {
				return nil, fmt.Errorf("placement probe: %s", reason)
			}
		}
		after, err := seqs()
		if err != nil {
			return nil, err
		}
		placement[region] = -1
		for s := range after {
			if after[s] > before[s] {
				placement[region] = s
			}
		}
		if placement[region] < 0 {
			return nil, fmt.Errorf("placement: no shard committed the probe for region %d", region)
		}
		distinct[placement[region]] = true
	}
	if len(distinct) < 2 {
		return nil, fmt.Errorf("placement: all regions on one shard (%v); no cross-shard batch is possible", placement)
	}
	return placement, nil
}

// runOne is one benchmark run of one workload.
func (e *env) runOne(w *workload, seed int64, seconds int, traced bool) (*runResult, error) {
	res := &runResult{Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced}
	runDir, err := os.MkdirTemp(e.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Set up several times and keep the last: setup_s is the median.
	var st *stack
	var setups []setupSample
	for i := 0; i < e.sizes.setups; i++ {
		if st != nil {
			st.stop()
		}
		var took setupSample
		st, took, err = e.setup(w, seed, filepath.Join(runDir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, took)
	}
	defer func() { st.stop() }()

	window := time.Duration(seconds) * time.Second
	if traced {
		err = e.tracedPhases(w, st, res, window)
	} else {
		err = e.untracedWindow(w, st, res, window, setups)
	}
	if err != nil {
		return nil, err
	}

	// Sanity of the configuration itself, from one scrape after the
	// measured phases.
	final, err := st.d.scrapeStats(st.views)
	if err != nil {
		return nil, err
	}
	if w.MinCacheRatio > 0 {
		if r, ok := cacheRatio(w, final); ok && r < w.MinCacheRatio {
			res.problem("pagestore.data_to_cache_ratio %.1f is below %.0f: the dataset is not larger than the cache", r, w.MinCacheRatio)
		}
	}
	if rows, ok := lookup(final.views["tpch"], "rows_total"); ok {
		seeded := tpch.RowsForMB(w.TPCHMB)
		start := float64(seeded.Regions + seeded.Nations + seeded.Customers + seeded.Orders + seeded.Lineitems)
		if w.usesWipes() && math.Abs(rows-start)/start > 0.02 {
			res.problem("rows_total %.0f drifted more than 2%% from the seeded %.0f", rows, start)
		}
	}

	if w.Durable {
		rec, err := e.crashAndVerify(w, st, res)
		if err != nil {
			return nil, err
		}
		if traced {
			res.add("relational.recovery_ms", "ms", rec.recoveryMs, 1)
			res.addMaybe("relational.recovery_replayed_txns", "count", rec.replayed, rec.replayedOK)
		}
	} else if traced {
		res.add("relational.recovery_ms", "ms", 0, 0)
		res.add("relational.recovery_replayed_txns", "count", 0, 0)
	}

	if traced {
		if err := e.drivePass(w, seed, res); err != nil {
			return nil, fmt.Errorf("layer-drive pass: %w", err)
		}
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

// untracedWindow measures the end-to-end metrics: tracing off, no
// scrape while the window is open. Timings are reported on the nominal
// machine: rates and totals scaled by the mean speed factor over the
// window, latencies by the median factor (per slice for the p95s).
func (e *env) untracedWindow(w *workload, st *stack, res *runResult, window time.Duration, setups []setupSample) error {
	_, cpu0, err := st.d.procUsage()
	if err != nil {
		return err
	}
	// Peak RSS is read at fixed answered-request counts, not at window
	// end (see workload.RSSAtOps), and the reads are averaged: one read
	// lands before or after a step of the garbage collector's staircase.
	var (
		rssMu  sync.Mutex // the two clients may reach adjacent milestones together
		rssAt  []float64
		rssErr error
	)
	st.ld.milestoneEvery, st.ld.onMilestone = w.RSSAtOps/rssReads, func() {
		rssMu.Lock()
		defer rssMu.Unlock()
		if len(rssAt) == rssReads {
			return
		}
		v, _, err := st.d.procUsage()
		if err != nil {
			rssErr = err
		}
		rssAt = append(rssAt, v)
	}
	load := st.ld.runFor(st.gens, window)
	st.ld.onMilestone = nil
	rssEnd, cpu1, err := st.d.procUsage()
	if err == nil {
		err = rssErr
	}
	if err != nil {
		return err
	}
	if len(rssAt) < rssReads {
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"rss_peak_mb: the window ended after %d answers, before the %d over which peak RSS is read; %d of %d reads are missing and the value at window end stands in for them",
			len(load.samples), w.RSSAtOps, rssReads-len(rssAt), rssReads))
		for len(rssAt) < rssReads {
			rssAt = append(rssAt, rssEnd)
		}
	}
	res.Attempted, res.Failed = load.attempted, load.failed
	for _, f := range load.failures {
		res.problem("request failed: %s", f)
	}
	ok := load.okCount()
	if ok == 0 {
		return fmt.Errorf("no request succeeded in the window: %v", load.failures)
	}
	meanSpeed, medSpeed := speedFactors(load.refDurations(0, math.MaxInt64))
	sliceSpeed := make([]float64, e.sizes.slices)
	for i := range sliceSpeed {
		width := load.windowNs / int64(e.sizes.slices)
		_, sliceSpeed[i] = speedFactors(load.refDurations(int64(i)*width, int64(i+1)*width))
	}
	var rawSetups, scaledSetups []float64
	for _, s := range setups {
		rawSetups, scaledSetups = append(rawSetups, s.raw), append(scaledSetups, s.scaled)
	}
	res.addScaled("setup_s", "s", median(rawSetups), median(scaledSetups), len(setups))
	rate := float64(ok) / window.Seconds()
	res.addScaled("ops_per_s", "1/s", rate, rate*meanSpeed, ok)
	for class := uint8(0); class < nClasses; class++ {
		lat := classLatencies(load.samples, class)
		if len(lat) == 0 {
			return fmt.Errorf("workload %s answered no %s request", w.Name, classNames[class])
		}
		p50 := percentile(lat, 0.50)
		res.addScaled(classNames[class]+"_p50_ms", "ms", p50, p50/medSpeed, len(lat))
		raw95, n := sliceQuantileMedian(load.samples, class, load.windowNs, e.sizes.slices, 0.95, nil)
		p95, _ := sliceQuantileMedian(load.samples, class, load.windowNs, e.sizes.slices, 0.95, sliceSpeed)
		res.addScaled(classNames[class]+"_p95_ms", "ms", raw95, p95, n)
	}
	cpu := (cpu1 - cpu0) / float64(ok)
	res.addScaled("cpu_ms_per_op", "ms", cpu, cpu/meanSpeed, ok)
	res.add("rss_peak_mb", "MB", mean(rssAt), len(rssAt))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"machine speed factor over the window: mean %.3f, median %.3f (%d reference units; 1 = the nominal machine, 2 = half its speed)",
		meanSpeed, medSpeed, len(load.refs)))
	return nil
}

// rssReads is how many evenly spaced reads of the child's peak RSS a
// window averages.
const rssReads = 16

// recovery is what the restart phase measured.
type recovery struct {
	recoveryMs float64
	replayed   float64
	replayedOK bool
}

// crashAndVerify SIGKILLs the daemon while the clients are still
// sending, restarts it over the same data dir, times the restart to the
// first answered data check, and verifies through read-only data
// checks that every acknowledged insert is still there and that no
// acknowledged delete or never-sent key is. kill -9 keeps the OS page
// cache, so this checks the replay logic, not fsync honesty — the
// walcrash matrix owns that.
func (e *env) crashAndVerify(w *workload, st *stack, res *runResult) (recovery, error) {
	var rec recovery
	tailDone := make(chan *loadResult, 1) // one send: the tail phase's result
	go func() {
		tailDone <- st.ld.run(st.gens, func(int, time.Duration) bool { return false })
	}()
	time.Sleep(200 * time.Millisecond)
	st.d.kill()
	tail := <-tailDone
	// Every client dies on one transport error; anything else is a
	// wrong answer under load and counts.
	if wrong := tail.failed - len(st.gens); wrong > 0 {
		res.Failed += wrong
		res.problem("tail load before the crash: %d wrong answers: %v", wrong, tail.failures)
	}
	res.Attempted += tail.attempted - len(st.gens)

	start := time.Now()
	d, err := startDaemon(e.bin, w, st.cfgPath, st.dataDir)
	if err != nil {
		return rec, fmt.Errorf("restart after kill -9: %w", err)
	}
	st.d = d
	st.ld.close()
	st.ld = newLoader(d.base)
	// Order 2 is no client's wipe order, and no apply deletes a seeded line.
	first := existenceCheck([]key{{2, 1}}, []verdict{vAccept})
	if _, reason, _ := st.ld.do(&first, &loadResult{}); reason != "" {
		res.Failed++
		res.problem("first data check after restart: %s", reason)
	}
	res.Attempted++
	rec.recoveryMs = float64(time.Since(start).Nanoseconds()) / 1e6

	uncertain := make(map[key]bool)
	for _, k := range tail.uncertain {
		uncertain[k] = true
	}
	var keys []key
	var want []verdict
	for _, g := range st.gens {
		for _, k := range g.liveKeys() {
			if !uncertain[k] {
				keys, want = append(keys, k), append(want, vAccept)
			}
		}
		gone := append([]key(nil), g.recentDeleted...)
		for j := int64(0); j < 8; j++ { // line numbers the client never sent
			gone = append(gone, key{g.client, g.lineAt(g.lineN + j)})
		}
		for _, k := range gone {
			if !uncertain[k] {
				keys, want = append(keys, k), append(want, vDataReject)
			}
		}
	}
	for i := 0; i < len(keys); i += 64 {
		j := min(i+64, len(keys))
		req := existenceCheck(keys[i:j], want[i:j])
		res.Attempted++
		if _, reason, _ := st.ld.do(&req, &loadResult{}); reason != "" {
			res.Failed++
			res.problem("durability: after kill -9 and restart, %s (accepted = the lineitem exists; in flight at the kill: %v)", reason, tail.uncertain)
		}
	}
	after, err := d.scrapeStats([]string{"tpch"})
	if err != nil {
		return rec, err
	}
	rec.replayed, rec.replayedOK = lookup(after.views["tpch"], "filter.database.recovery_replayed_txns")
	return rec, nil
}

// existenceCheck is a read-only data check that deleting each lineitem
// would work: accepted exactly when the lineitem exists.
func existenceCheck(keys []key, want []verdict) request {
	req := request{class: clsCheck, view: "tpch", batched: true, data: true}
	for i, k := range keys {
		u := deleteOf(k)
		u.op, u.expect = opCheck, want[i]
		req.updates = append(req.updates, u)
	}
	return req
}

// cacheRatio is the checkpoint page image over the page-cache budget.
func cacheRatio(w *workload, s *scrape) (float64, bool) {
	if !w.Durable {
		return 0, true
	}
	pages, ok := lookup(s.views["tpch"], "filter.database.pages_total")
	budget := float64(w.PageCacheBytes)
	if budget == 0 {
		budget = 256 << 20 // the engine default
	}
	return pages * 4096 / budget, ok
}

// contractLine renders the one-line JSON object the benchmark contract
// asks for on the last line of standard output. A null metric is
// written as -1: the contract wants a number for every name.
func contractLine(r *runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.Metrics))
	for _, m := range r.Metrics {
		v := -1.0
		if m.Value != nil {
			v = *m.Value
		}
		metrics[m.Name] = mv{v, m.Unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics}) // finite floats and strings cannot fail to marshal
	return string(out)
}

// printResult lists every metric by name with its unit.
func printResult(r *runResult) {
	mode := "untraced (end-to-end)"
	if r.Traced {
		mode = "traced (per-layer)"
	}
	fmt.Printf("workload %s seed %d seconds %d %s\n", r.Workload, r.Seed, r.Seconds, mode)
	ms := append([]metric(nil), r.Metrics...)
	if r.Traced {
		sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	}
	for _, m := range ms {
		val := "null"
		if m.Value != nil {
			val = fmt.Sprintf("%.6g", *m.Value)
		}
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		if m.Raw != nil {
			n += fmt.Sprintf("  (as measured: %.6g)", *m.Raw)
		}
		fmt.Printf("  %-40s %14s %-6s%s\n", m.Name, val, m.Unit, n)
	}
	fmt.Printf("  attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, w := range r.Warnings {
		fmt.Printf("  warning: %s\n", w)
	}
	for _, p := range r.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
}
