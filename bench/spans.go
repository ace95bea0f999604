package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one bench-owned interval around a call into a layer's public
// function. Spans of one generated op share req; parent is the id of
// the span whose call caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory on one goroutine; the drive pass writes
// them out once at the end.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes into spans of the currently open spans
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextReq starts the spans of the next generated op.
func (t *tracer) nextReq() { t.req++ }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name})
	t.open = append(t.open, len(t.spans)-1)
	t.spans[len(t.spans)-1].Start = time.Since(t.t0).Nanoseconds()
}

// end closes the innermost open span.
func (t *tracer) end() {
	now := time.Since(t.t0).Nanoseconds()
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = now
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range ch {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// spanMeans aggregates a finished trace by span name: mean duration and
// mean self time in µs, and the number of spans.
type spanMean struct {
	Count  int
	DurUs  float64
	SelfUs float64
}

func spanMeans(spans []span) map[string]spanMean {
	self := selfTimes(spans)
	sums := make(map[string]*[3]float64)
	for _, s := range spans {
		a := sums[s.Name]
		if a == nil {
			a = new([3]float64)
			sums[s.Name] = a
		}
		a[0]++
		a[1] += float64(s.End - s.Start)
		a[2] += float64(self[s.ID])
	}
	out := make(map[string]spanMean, len(sums))
	for name, a := range sums {
		out[name] = spanMean{Count: int(a[0]), DurUs: a[1] / a[0] / 1e3, SelfUs: a[2] / a[0] / 1e3}
	}
	return out
}

// writeSpans writes a finished trace as one JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
