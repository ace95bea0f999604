package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stream renders the first n requests of one client as bytes.
func stream(w *workload, seed int64, n int) []byte {
	g := newGenerator(w, seed, 0, nClients, []int{0, 1, 2, 3, 0})
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		r := g.next()
		b.WriteString(r.path())
		b.Write(r.body())
	}
	return b.Bytes()
}

func TestGeneratorIsAFunctionOfItsSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := stream(w, 7, 600), stream(w, 7, 600), stream(w, 8, 600)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: equal seeds gave different streams", w.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same stream", w.Name)
		}
	}
}

func TestClientsNeverShareAKey(t *testing.T) {
	for _, w := range workloads {
		seen := make(map[key]int)
		for c := 0; c < nClients; c++ {
			g := newGenerator(w, 3, c, nClients, []int{0, 1, 2, 3, 0})
			for i := 0; i < 3000; i++ {
				r := g.next()
				if r.class == clsCheck {
					continue
				}
				for _, u := range r.updates {
					if owner, dup := seen[key{u.key.Order, 0}]; dup && owner != c {
						t.Fatalf("%s: order %d written by clients %d and %d", w.Name, u.key.Order, owner, c)
					}
					seen[key{u.key.Order, 0}] = c
				}
			}
		}
	}
}

// The restart check skips the keys of the requests that died in flight,
// so a request must name every lineitem the generator's bookkeeping
// already moved — the one a wipe removes included.
func TestTouchedNamesEveryKeyTheBookkeepingMoved(t *testing.T) {
	for _, w := range workloads {
		g := newGenerator(w, 2, 0, nClients, []int{0, 1, 2, 3, 0})
		wipes := 0
		for i := 0; i < 4000; i++ {
			before := make(map[key]bool)
			for _, k := range g.liveKeys() {
				before[k] = true
			}
			r := g.next()
			touched := make(map[key]bool)
			for _, k := range r.touched() {
				touched[k] = true
			}
			after := make(map[key]bool)
			for _, k := range g.liveKeys() {
				after[k] = true
				if !before[k] && !touched[k] {
					t.Fatalf("%s request %d: %v became live but %s does not name it", w.Name, i, k, r.path())
				}
			}
			for k := range before {
				if !after[k] && !touched[k] {
					t.Fatalf("%s request %d: %v stopped being live but %s does not name it", w.Name, i, k, r.path())
				}
			}
			if len(r.updates) == 1 && r.updates[0].op == opWipe {
				wipes++
			}
		}
		if w.usesWipes() && wipes == 0 {
			t.Errorf("%s: no wipe generated", w.Name)
		}
	}
}

func TestShardedBatchesCrossShards(t *testing.T) {
	w := findWorkload("apply-sharded")
	placement := []int{2, 0, 2, 3, 1}
	g := newGenerator(w, 5, 1, nClients, placement)
	batches := 0
	for i := 0; i < 2000; i++ {
		r := g.next()
		if r.class != clsBatch {
			continue
		}
		batches++
		if a, b := g.shardOfOrder(r.updates[0].key.Order), g.shardOfOrder(r.updates[1].key.Order); a == b {
			t.Fatalf("batch %d stays on shard %d: orders %d and %d", batches, a, r.updates[0].key.Order, r.updates[1].key.Order)
		}
	}
	if batches == 0 {
		t.Fatal("no batch generated")
	}
}

func TestCorpusIsAtLeastFortyPercentUntranslatable(t *testing.T) {
	share := func(entries []corpusEntry) float64 {
		rejected := 0
		for _, e := range entries {
			if !e.expect.Accepted {
				rejected++
			}
		}
		return float64(rejected) / float64(len(entries))
	}
	if s := share(repeatedCorpus); s < 0.40 {
		t.Errorf("repeated corpus: %.2f rejected", s)
	}
	if s := share(freshCorpus); s < 0.40 {
		t.Errorf("fresh corpus: %.2f rejected", s)
	}
	for _, e := range repeatedCorpus {
		if e.expect == (verdict{}) {
			t.Errorf("corpus entry on %s has no expected verdict: %.40q", e.view, e.text)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.99, 10}, {0.1, 1}, {1, 10}, {0.91, 10}, {0.9, 9}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing must be 0")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSliceQuantileMedianIgnoresOneStall(t *testing.T) {
	const window = int64(6e9)
	var samples []sample
	for i := int64(0); i < 6000; i++ {
		lat := int64(1e6) // 1 ms everywhere ...
		if i >= 1000 && i < 2000 {
			lat = 50e6 // ... but the second slice stalls at 50 ms
		}
		samples = append(samples, sample{endNs: i * 1e6, latNs: lat, class: clsApply, ok: true})
	}
	samples = append(samples, sample{endNs: 10, latNs: 9e9, class: clsCheck, ok: true})  // another class
	samples = append(samples, sample{endNs: 20, latNs: 9e9, class: clsApply, ok: false}) // a failure
	got, n := sliceQuantileMedian(samples, clsApply, window, 6, 0.99, nil)
	if got != 1 || n != 6000 {
		t.Errorf("slice-median p99 = %v ms over %d samples, want 1 ms over 6000", got, n)
	}
	if whole := percentile(classLatencies(samples, clsApply), 0.99); whole != 50 {
		t.Errorf("whole-window p99 = %v, want 50 (the stall)", whole)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "parse", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "execute", Start: 25, End: 70}, // overlaps parse by 5
		{ID: 4, Parent: 3, Name: "commit", Start: 40, End: 60},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 20 - 40 - 10, 2: 20, 3: 45 - 20, 4: 20, 5: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	m := spanMeans(spans)
	if m["execute"].DurUs != 0.045 || m["execute"].SelfUs != 0.025 || m["execute"].Count != 1 {
		t.Errorf("spanMeans(execute) = %+v", m["execute"])
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	tr.nextReq()
	tr.begin("outer")
	tr.begin("inner")
	tr.end()
	tr.end()
	tr.nextReq()
	tr.begin("next")
	tr.end()
	if len(tr.spans) != 3 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[2].Parent != 0 {
		t.Fatalf("bad nesting: %+v", tr.spans)
	}
	if tr.spans[0].Req != 1 || tr.spans[2].Req != 2 {
		t.Errorf("bad request ids: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}

func TestStatsDecoderToleratesAMissingKey(t *testing.T) {
	var m map[string]any
	doc := `{"applies":{"accepted":7},"filter":{"database":{"fsyncs_total":3,"name":"x"}},"shard_stats":[{"commit_seq":4},{"commit_seq":6}]}`
	if err := json.Unmarshal([]byte(doc), &m); err != nil {
		t.Fatal(err)
	}
	if v, ok := lookup(m, "filter.database.fsyncs_total"); !ok || v != 3 {
		t.Errorf("present key: %v %v", v, ok)
	}
	for _, path := range []string{"filter.database.redo_flushes", "filter.nothing.x", "applies.accepted.deeper", "filter.database.name"} {
		if _, ok := lookup(m, path); ok {
			t.Errorf("lookup(%s) claims a number", path)
		}
	}
	s := &scrape{views: map[string]map[string]any{"tpch": m}}
	if v, ok := s.shardValues("tpch", "commit_seq", "filter.database.commit_seq"); !ok || len(v) != 2 || v[1] != 6 {
		t.Errorf("shardValues = %v %v", v, ok)
	}
	if _, ok := s.shardValues("tpch", "fsyncs_total", "x"); ok {
		t.Error("missing per-shard field must not resolve")
	}

	// A metric whose source is gone is reported null with a warning, and
	// as -1 on the contract line; nothing crashes.
	res := &runResult{}
	v, ok := lookup(m, "filter.database.redo_flushes")
	res.addMaybe("relational.gone", "count", v, ok)
	res.add("relational.there", "count", 2, 0)
	if len(res.Warnings) != 1 || res.Metrics[0].Value != nil {
		t.Fatalf("missing source not reported as null + warning: %+v", res)
	}
	var line struct {
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil {
		t.Fatal(err)
	}
	if line.Metrics["relational.gone"].Value != -1 || line.Metrics["relational.there"].Value != 2 {
		t.Errorf("contract line: %+v", line.Metrics)
	}
}

func TestPromHistogramsAndQuantile(t *testing.T) {
	text := `# TYPE ufilterd_wal_fsync_seconds histogram
ufilterd_wal_fsync_seconds_bucket{view="a",le="0.001"} 10
ufilterd_wal_fsync_seconds_bucket{view="a",le="0.002"} 90
ufilterd_wal_fsync_seconds_bucket{view="a",le="+Inf"} 100
ufilterd_wal_fsync_seconds_bucket{view="b",le="0.001"} 0
ufilterd_wal_fsync_seconds_bucket{view="b",le="0.002"} 10
ufilterd_wal_fsync_seconds_bucket{view="b",le="+Inf"} 100
ufilterd_request_duration_seconds_bucket{view="a",endpoint="check",le="0.001"} 5
ufilterd_wal_fsync_seconds_count{view="a"} 100
`
	h := parsePromHists(text)["ufilterd_wal_fsync_seconds"]
	if h == nil || len(h.cum) != 3 || h.cum[0] != 10 || h.cum[1] != 100 || h.cum[2] != 200 {
		t.Fatalf("parsed histogram: %+v", h)
	}
	if _, has := parsePromHists(text)["ufilterd_request_duration_seconds"]; has {
		t.Error("per-endpoint family must be skipped")
	}
	// Half of 200 samples sit at or below 0.002: the median is that bound.
	if q := histQuantile(h.bounds, h.cum, 0.5); math.Abs(q-0.002) > 1e-12 {
		t.Errorf("p50 = %v, want 0.002", q)
	}
	if q := histQuantile(h.bounds, h.cum, 0.99); q != 0.002 {
		t.Errorf("p99 in the overflow bucket = %v, want the last finite bound", q)
	}
	if q := histQuantile(h.bounds, []float64{0, 0, 0}, 0.5); q != 0 {
		t.Errorf("empty histogram p50 = %v", q)
	}
}

func TestSpanUnionCountsOverlapOnce(t *testing.T) {
	var tr wireTrace
	if err := json.Unmarshal([]byte(`{"total_ns":100,"spans":[{"start_ns":0,"dur_ns":30},{"start_ns":20,"dur_ns":30},{"start_ns":80,"dur_ns":40}]}`), &tr); err != nil {
		t.Fatal(err)
	}
	if got := unionNs(&tr); got != 50+20 {
		t.Errorf("union = %d, want 70", got)
	}
}

func TestResponseShapes(t *testing.T) {
	single := request{class: clsApply, view: "tpch", updates: []update{{expect: vDataReject}}}
	batch := request{class: clsBatch, view: "tpch", batched: true, updates: []update{{expect: vAccept}, {expect: vAccept}}}
	cases := []struct {
		req  *request
		body string
		ok   bool
	}{
		{&single, `{"accepted":false,"rejected_at":"data"}`, true},
		{&single, `{"result":{"accepted":false,"rejected_at":"data"},"trace":{"total_ns":5}}`, true},
		{&single, `{"accepted":true,"rejected_at":"none"}`, false},
		{&batch, `{"results":[{"index":0,"result":{"accepted":true,"rejected_at":"none"}},{"index":1,"result":{"accepted":true,"rejected_at":"none"}}],"accepted":2,"rejected":0}`, true},
		{&batch, `{"results":[{"index":0,"result":{"accepted":true,"rejected_at":"none"}},{"index":1,"error":"boom"}],"accepted":1,"rejected":1}`, false},
		{&batch, `{"results":[{"index":0,"result":{"accepted":true,"rejected_at":"none"}}],"accepted":1,"rejected":0}`, false},
	}
	for i, c := range cases {
		var wr wireResp
		if err := json.Unmarshal([]byte(c.body), &wr); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if reason := checkVerdicts(c.req, &wr); (reason == "") != c.ok {
			t.Errorf("case %d: reason %q, want ok=%v", i, reason, c.ok)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	row := func(vals ...float64) summaryRow {
		rs := []*runResult{}
		for _, v := range vals {
			v := v
			rs = append(rs, &runResult{Workload: "w", Metrics: []metric{{Name: "m", Value: &v}}})
		}
		return summarize(rs)[0]
	}
	lower := e2eSpec{Name: "m", Bound: 0.10}
	higher := e2eSpec{Name: "m", Bound: 0.10, Higher: true}
	steady := row(100, 101, 99, 100, 100)
	for _, c := range []struct {
		spec e2eSpec
		b    summaryRow
		want string
	}{
		{lower, row(105, 106, 104, 105, 105), "ok"},
		{lower, row(115, 116, 114, 115, 115), "worse"},
		{lower, row(85, 86, 84, 85, 85), "ok"}, // better is never worse
		{higher, row(85, 86, 84, 85, 85), "worse"},
		{higher, row(115, 116, 114, 115, 115), "ok"},
		{lower, row(80, 140, 100, 120, 90), "unresolved"},
	} {
		if got, _ := verdictOf(c.spec, steady, c.b); got != c.want {
			t.Errorf("%+v vs median %v: %s, want %s", c.spec, c.b.Median, got, c.want)
		}
	}
}

// benchmarkJSON is the root BENCHMARK.json as far as the tests read it.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, code has %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(e2eSpecs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(b.EndToEnd), len(e2eSpecs))
	}
	for i, s := range e2eSpecs {
		m := b.EndToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Bound != s.Bound || (m.Better == "higher") != s.Higher {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, m, s)
		}
	}
}

// TestSmoke boots a real ufilterd child and runs one durable, sharded
// workload end to end at smoke size, untraced and traced; the metric
// names that come out must be exactly the ones BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real daemon")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ufilterd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/ufilterd").CombinedOutput(); err != nil {
		t.Fatalf("build ufilterd: %v\n%s", err, out)
	}
	e := &env{bin: bin, workDir: dir, outDir: filepath.Join(dir, "out"), sizes: smokeSizes}
	b := readBenchmarkJSON(t)
	w := findWorkload("apply-sharded")
	for _, traced := range []bool{false, true} {
		res, err := e.runOne(w, 1, 2, traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("traced=%v: attempted %d failed %d problems %v", traced, res.Attempted, res.Failed, res.Problems)
		}
		var want, got []string
		if traced {
			for _, m := range b.PerLayer {
				want = append(want, m.Name)
			}
		} else {
			for _, m := range b.EndToEnd {
				want = append(want, m.Name)
			}
		}
		for _, m := range res.Metrics {
			got = append(got, m.Name)
			if m.Value == nil {
				t.Errorf("metric %s is null at this commit", m.Name)
			}
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(want, " ") != strings.Join(got, " ") {
			t.Errorf("traced=%v: BENCHMARK.json names\n  %v\nthe run reported\n  %v", traced, want, got)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "out", w.Name+".spans.json")); err != nil {
		t.Errorf("drive pass left no span file: %v", err)
	}
}
