package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// wireResult is the part of a verdict the generator predicts.
type wireResult struct {
	Accepted   bool   `json:"accepted"`
	RejectedAt string `json:"rejected_at"`
}

// wireTrace is the daemon's opt-in stage breakdown.
type wireTrace struct {
	TotalNs int64 `json:"total_ns"`
	Spans   []struct {
		StartNs int64 `json:"start_ns"`
		DurNs   int64 `json:"dur_ns"`
	} `json:"spans"`
}

// wireResp covers every response shape: a bare verdict, a traced
// single ({"result","trace"}) and the batch forms ({"results",...}, where
// "accepted" is a count, hence the raw message).
type wireResp struct {
	Accepted   json.RawMessage `json:"accepted"`
	RejectedAt string          `json:"rejected_at"`
	Result     *wireResult     `json:"result"`
	Results    []struct {
		Result *wireResult `json:"result"`
		Error  string      `json:"error"`
	} `json:"results"`
	Trace *wireTrace `json:"trace"`
}

// loadResult is what one load phase observed.
type loadResult struct {
	samples   []sample
	windowNs  int64
	attempted int
	failed    int
	failures  []string // the first few, for the report
	// Traced phases: union of returned span intervals and summed total_ns.
	spanUnionNs, spanTotalNs int64
	// uncertain are the keys of requests that died in flight.
	uncertain []key
	// refs are the reference units the clients ran between requests.
	refs []refSample
}

// refSample is one reference unit: when it ended, how long it took.
type refSample struct{ endNs, durNs int64 }

// refDurations lists the reference samples that ended in [loNs, hiNs).
func (r *loadResult) refDurations(loNs, hiNs int64) []int64 {
	var out []int64
	for _, s := range r.refs {
		if s.endNs >= loNs && s.endNs < hiNs {
			out = append(out, s.durNs)
		}
	}
	return out
}

func (r *loadResult) merge(o *loadResult) {
	r.samples = append(r.samples, o.samples...)
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < 5 {
			r.failures = append(r.failures, f)
		}
	}
	r.spanUnionNs += o.spanUnionNs
	r.spanTotalNs += o.spanTotalNs
	r.uncertain = append(r.uncertain, o.uncertain...)
	r.refs = append(r.refs, o.refs...)
}

// okCount counts requests answered as expected inside the window.
func (r *loadResult) okCount() int {
	n := 0
	for _, s := range r.samples {
		if s.ok && s.endNs <= r.windowNs {
			n++
		}
	}
	return n
}

// loader drives the daemon closed-loop: one goroutine and one
// keep-alive connection per generator.
type loader struct {
	base   string
	client *http.Client
	traced bool // send X-UFilter-Trace: 1
	// onMilestone, when set, is called at every milestoneEvery-th answer
	// of a run (counted over all clients), by whichever client got it.
	milestoneEvery int64
	onMilestone    func()
}

func newLoader(base string) *loader {
	return &loader{base: base, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: nClients, DisableCompression: true},
		Timeout:   30 * time.Second,
	}}
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// do sends one request and checks the answer against the generator's
// expectation. A non-empty reason describes the failure.
func (l *loader) do(req *request, res *loadResult) (lat time.Duration, reason string, transport bool) {
	path := req.path()
	hr, err := http.NewRequest(http.MethodPost, l.base+path, bytes.NewReader(req.body()))
	if err != nil {
		return 0, err.Error(), true
	}
	hr.Header.Set("Content-Type", "application/json")
	if l.traced {
		hr.Header.Set("X-UFilter-Trace", "1")
	}
	start := time.Now()
	resp, err := l.client.Do(hr)
	if err != nil {
		return time.Since(start), err.Error(), true
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat = time.Since(start)
	if err != nil {
		return lat, err.Error(), true
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Sprintf("%s: HTTP %d: %.120s", path, resp.StatusCode, body), false
	}
	var wr wireResp
	if err := json.Unmarshal(body, &wr); err != nil {
		return lat, fmt.Sprintf("%s: bad JSON: %v", path, err), false
	}
	if l.traced && wr.Trace != nil {
		res.spanTotalNs += wr.Trace.TotalNs
		res.spanUnionNs += unionNs(wr.Trace)
	}
	return lat, checkVerdicts(req, &wr), false
}

// checkVerdicts compares a decoded response with the request's
// expected verdicts.
func checkVerdicts(req *request, wr *wireResp) string {
	if wr.Results == nil {
		got := wireResult{Accepted: string(wr.Accepted) == "true", RejectedAt: wr.RejectedAt}
		if wr.Result != nil {
			got = *wr.Result
		}
		return mismatch(req, 0, got)
	}
	if len(wr.Results) != len(req.updates) {
		return fmt.Sprintf("%s: %d results for %d updates", req.path(), len(wr.Results), len(req.updates))
	}
	for i, r := range wr.Results {
		if r.Result == nil {
			return fmt.Sprintf("%s[%d]: error %q", req.path(), i, r.Error)
		}
		if m := mismatch(req, i, *r.Result); m != "" {
			return m
		}
	}
	return ""
}

func mismatch(req *request, i int, got wireResult) string {
	want := req.updates[i].expect
	if got.Accepted == want.Accepted && got.RejectedAt == want.RejectedAt {
		return ""
	}
	return fmt.Sprintf("%s[%d] key %v: got accepted=%v rejected_at=%s, want accepted=%v rejected_at=%s",
		req.path(), i, req.updates[i].key, got.Accepted, got.RejectedAt, want.Accepted, want.RejectedAt)
}

// unionNs measures how much of a trace's duration its spans cover,
// counting overlapping spans once.
func unionNs(t *wireTrace) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(t.Spans))
	for _, s := range t.Spans {
		ivs = append(ivs, iv{s.StartNs, s.StartNs + s.DurNs})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, edge int64
	for _, v := range ivs {
		if v.lo < edge {
			v.lo = edge
		}
		if v.hi > t.TotalNs {
			v.hi = t.TotalNs
		}
		if v.hi > v.lo {
			covered += v.hi - v.lo
			edge = v.hi
		}
	}
	return covered
}

// run drives every generator until stop says so. stop is asked before
// each send with the client's request count so far. A transport error
// ends that client's loop (the daemon is gone) and records the dying
// request's keys as uncertain.
func (l *loader) run(gens []*generator, stop func(sent int, elapsed time.Duration) bool) *loadResult {
	start := time.Now()
	parts := make([]*loadResult, len(gens))
	var answered atomic.Int64
	var wg sync.WaitGroup
	for i, g := range gens {
		wg.Add(1)
		go func(i int, g *generator) {
			defer wg.Done()
			res := &loadResult{}
			parts[i] = res
			for sent := 0; !stop(sent, time.Since(start)); sent++ {
				if sent%refEvery == 0 {
					dur := refUnit()
					res.refs = append(res.refs, refSample{time.Since(start).Nanoseconds(), dur})
				}
				req := g.next()
				res.attempted++
				lat, reason, transport := l.do(&req, res)
				ok := reason == ""
				if !ok {
					res.failed++
					if len(res.failures) < 5 {
						res.failures = append(res.failures, reason)
					}
				}
				res.samples = append(res.samples, sample{
					endNs: time.Since(start).Nanoseconds(), latNs: lat.Nanoseconds(), class: req.class, ok: ok})
				if transport {
					res.uncertain = append(res.uncertain, req.touched()...)
					return
				}
				if n := answered.Add(1); l.onMilestone != nil && n%l.milestoneEvery == 0 {
					l.onMilestone()
				}
			}
		}(i, g)
	}
	wg.Wait()
	total := &loadResult{}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// runFor drives the generators for a fixed window.
func (l *loader) runFor(gens []*generator, window time.Duration) *loadResult {
	res := l.run(gens, func(_ int, elapsed time.Duration) bool { return elapsed >= window })
	res.windowNs = window.Nanoseconds()
	return res
}

// runCount drives each generator for a fixed number of requests.
func (l *loader) runCount(gens []*generator, perClient int) *loadResult {
	return l.run(gens, func(sent int, _ time.Duration) bool { return sent >= perClient })
}
