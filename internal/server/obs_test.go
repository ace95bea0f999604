package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bookdb"
	"repro/internal/obs"
)

// TestTracedApply: an apply carrying X-UFilter-Trace: 1 gets back a
// stage breakdown whose spans all fit inside (and sum to no more than)
// the measured end-to-end latency — the acceptance criterion — and its
// Step 3 probes' SQL.
func TestTracedApply(t *testing.T) {
	_, ts := newTestServer(t)
	data, _ := json.Marshal(map[string]string{"update": bookdb.U12})
	req, err := http.NewRequest("POST", ts.URL+"/views/book/apply", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-UFilter-Trace", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Result struct {
			Accepted bool     `json:"accepted"`
			Probes   []string `json:"probes"`
		} `json:"result"`
		Trace obs.TraceSummary `json:"trace"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	if !out.Result.Accepted {
		t.Fatalf("apply rejected: %s", body)
	}
	if len(out.Result.Probes) != 1 || !strings.HasPrefix(out.Result.Probes[0], "SELECT book.bookid FROM") {
		t.Errorf("traced apply lists probes %q, want its one context probe", out.Result.Probes)
	}
	if out.Trace.TotalNs <= 0 {
		t.Fatal("trace has no end-to-end total")
	}
	if len(out.Trace.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	stages := map[string]bool{}
	var sum int64
	for _, s := range out.Trace.Spans {
		stages[s.Stage] = true
		sum += s.DurNs
		if s.StartNs < 0 || s.StartNs > out.Trace.TotalNs {
			t.Errorf("span %q starts outside the trace: %+v", s.Stage, s)
		}
	}
	if sum > out.Trace.TotalNs {
		t.Errorf("span sum %d exceeds end-to-end %d", sum, out.Trace.TotalNs)
	}
	for _, want := range []string{"admission", "context_check", "translate", "execute", "commit_publish"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (got %v)", want, stages)
		}
	}
}

// TestUntracedApplyShapeUnchanged: without the header the apply
// response is the bare Result, exactly as before this layer existed,
// less the probes' SQL, which only a traced answer renders.
func TestUntracedApplyShapeUnchanged(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/views/book/apply", map[string]string{"update": bookdb.U12})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, hasTrace := raw["trace"]; hasTrace {
		t.Fatalf("untraced response leaked a trace: %s", body)
	}
	if _, hasAccepted := raw["accepted"]; !hasAccepted {
		t.Fatalf("untraced response is not a bare Result: %s", body)
	}
	if _, hasProbes := raw["probes"]; hasProbes {
		t.Fatalf("untraced response rendered its probes: %s", body)
	}
}

// TestSlowEndpoint: after traffic, /views/{name}/slow serves the
// slowest recent traces, slowest first, the first with stage spans.
func TestSlowEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 5; i++ {
		resp, body := postJSON(t, ts.URL+"/views/book/check", map[string]string{"update": bookdb.U12})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/views/book/apply", map[string]string{"update": bookdb.U12})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply: HTTP %d: %s", resp.StatusCode, body)
	}
	var out struct {
		View  string             `json:"view"`
		Count int                `json:"count"`
		Slow  []obs.TraceSummary `json:"slow"`
	}
	getJSON(t, ts.URL+"/views/book/slow", &out)
	if out.View != "book" || out.Count == 0 || len(out.Slow) != out.Count {
		t.Fatalf("slow ring empty after traffic: %+v", out)
	}
	if len(out.Slow[0].Spans) == 0 {
		t.Fatalf("slowest trace carries no spans: %+v", out.Slow[0])
	}
	for i := 1; i < len(out.Slow); i++ {
		if out.Slow[i].TotalNs > out.Slow[i-1].TotalNs {
			t.Fatalf("slow traces not sorted slowest-first: %d after %d",
				out.Slow[i].TotalNs, out.Slow[i-1].TotalNs)
		}
	}
}

// TestMetricsHistogramFamilies is the acceptance parsing test:
// /metrics must expose >= 6 histogram families with correct cumulative
// _bucket/_sum/_count encoding, verified line by line.
func TestMetricsHistogramFamilies(t *testing.T) {
	_, ts := newTestServer(t)
	// Drive every instrumented path at least once.
	postJSON(t, ts.URL+"/views/book/check", map[string]string{"update": bookdb.U12})
	postJSON(t, ts.URL+"/views/book/apply", map[string]string{"update": bookdb.U12})
	postJSON(t, ts.URL+"/views/book/check-batch", map[string]any{"updates": []string{bookdb.U12}})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}

	type series struct {
		buckets []uint64 // cumulative counts in le order
		les     []string
		sum     *float64
		count   *uint64
	}
	families := map[string]bool{} // histogram family name -> seen TYPE line
	byKey := map[string]*series{} // family + labels (le stripped) -> series
	keyOf := func(name, labelPart string) string {
		var kept []string
		for _, kv := range strings.Split(labelPart, ",") {
			if !strings.HasPrefix(kv, "le=") {
				kept = append(kept, kv)
			}
		}
		sort.Strings(kept)
		return name + "|" + strings.Join(kept, ",")
	}
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) == 4 && parts[3] == "histogram" {
				families[parts[2]] = true
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable sample line %q", line)
		}
		base := name
		labelPart := ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
			base, labelPart = name[:i], name[i+1:len(name)-1]
		}
		switch {
		case strings.HasSuffix(base, "_bucket") && families[strings.TrimSuffix(base, "_bucket")]:
			fam := strings.TrimSuffix(base, "_bucket")
			le := ""
			for _, kv := range strings.Split(labelPart, ",") {
				if strings.HasPrefix(kv, "le=") {
					le = strings.Trim(kv[len("le="):], `"`)
				}
			}
			if le == "" {
				t.Fatalf("bucket without le: %q", line)
			}
			c, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", line, err)
			}
			s := byKey[keyOf(fam, labelPart)]
			if s == nil {
				s = &series{}
				byKey[keyOf(fam, labelPart)] = s
			}
			s.buckets = append(s.buckets, c)
			s.les = append(s.les, le)
		case strings.HasSuffix(base, "_sum") && families[strings.TrimSuffix(base, "_sum")]:
			f, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("sum value %q: %v", line, err)
			}
			s := byKey[keyOf(strings.TrimSuffix(base, "_sum"), labelPart)]
			if s == nil {
				t.Fatalf("_sum before any bucket: %q", line)
			}
			s.sum = &f
		case strings.HasSuffix(base, "_count") && families[strings.TrimSuffix(base, "_count")]:
			c, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("count value %q: %v", line, err)
			}
			s := byKey[keyOf(strings.TrimSuffix(base, "_count"), labelPart)]
			if s == nil {
				t.Fatalf("_count before any bucket: %q", line)
			}
			s.count = &c
		}
	}

	if len(families) < 6 {
		t.Fatalf("only %d histogram families exposed, want >= 6: %v", len(families), families)
	}
	for _, want := range []string{
		"ufilterd_request_duration_seconds",
		"ufilterd_apply_latency_seconds",
		"ufilterd_plan_compile_seconds",
		"ufilterd_txn_retries_per_apply",
		"ufilterd_commit_wait_seconds",
		"ufilterd_wal_fsync_seconds",
	} {
		if !families[want] {
			t.Errorf("missing histogram family %s", want)
		}
	}
	nonEmpty := 0
	for key, s := range byKey {
		last := ""
		var prev uint64
		for i, c := range s.buckets {
			if c < prev {
				t.Errorf("%s: cumulative bucket counts decrease at le=%s", key, s.les[i])
			}
			prev = c
			last = s.les[i]
		}
		if last != "+Inf" {
			t.Errorf("%s: last bucket le=%q, want +Inf", key, last)
		}
		if s.sum == nil || s.count == nil {
			t.Errorf("%s: missing _sum or _count", key)
			continue
		}
		if s.buckets[len(s.buckets)-1] != *s.count {
			t.Errorf("%s: +Inf bucket %d != _count %d", key, s.buckets[len(s.buckets)-1], *s.count)
		}
		if *s.count > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every histogram series is empty after traffic")
	}
	// The driven endpoints must have recorded.
	for _, mustHave := range []string{
		fmt.Sprintf(`ufilterd_request_duration_seconds|endpoint="apply",view="book"`),
		fmt.Sprintf(`ufilterd_plan_compile_seconds|view="book"`),
		fmt.Sprintf(`ufilterd_commit_wait_seconds|view="book"`),
	} {
		s := byKey[mustHave]
		if s == nil || s.count == nil || *s.count == 0 {
			t.Errorf("series %s empty after traffic", mustHave)
		}
	}
}

// TestRetryAfterUsesP90: the Retry-After estimate under backpressure
// comes from the apply-latency histogram's p90, not a running mean.
func TestRetryAfterUsesP90(t *testing.T) {
	reg := NewRegistry()
	v, err := reg.Add(ViewConfig{Name: "book", Dataset: "book", QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Bimodal synthetic latencies: 85 fast commits and 15 slow
	// retry-tail applies. The mean (~0.9s) would round the estimate
	// down; the p90 (in the 4s bucket) must dominate.
	for i := 0; i < 85; i++ {
		v.applyHist.Record(int64(300_000_000)) // 0.3s
	}
	for i := 0; i < 15; i++ {
		v.applyHist.Record(int64(4_000_000_000)) // 4s
	}
	v.queue <- struct{}{}
	v.queue <- struct{}{} // limiter full, depth == lanes
	defer func() { <-v.queue; <-v.queue }()
	got := v.retryAfter()
	if got < 2e9 {
		t.Fatalf("retryAfter = %v, want >= 2s (p90 of the bimodal distribution)", got)
	}
}
