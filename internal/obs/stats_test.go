package obs

import (
	"strings"
	"testing"
)

type innerStats struct {
	Rate   float64 `json:"rate" stat:"rate,gauge,max" help:"A ratio."`
	Hidden int     `json:"hidden" stat:",gauge,sum"`
}

type outerStats struct {
	Name  string     `json:"name"`
	Hits  int64      `json:"hits" stat:"hits_total,counter,sum" help:"Hits."`
	Inner innerStats `json:"inner"`
	Wait  int64      `json:"wait_ns" stat:"wait_seconds,gauge,max" help:"A wait."`
}

// TestWriteStatsRendersNestedAndFloat: an untagged struct field's tagged
// fields render and fold as the parent's own, a float64 renders as it
// is, and an _ns field renders in seconds.
func TestWriteStatsRendersNestedAndFloat(t *testing.T) {
	var b strings.Builder
	WriteStats(&b, "p_", false, []StatSeries[outerStats]{
		{`v="a"`, outerStats{Hits: 3, Inner: innerStats{Rate: 0.25, Hidden: 9}, Wait: 1500000000}},
	})
	want := strings.Join([]string{
		"# HELP p_hits_total Hits.",
		"# TYPE p_hits_total counter",
		`p_hits_total{v="a"} 3`,
		"# HELP p_rate A ratio.",
		"# TYPE p_rate gauge",
		`p_rate{v="a"} 0.25`,
		"# HELP p_wait_seconds A wait.",
		"# TYPE p_wait_seconds gauge",
		`p_wait_seconds{v="a"} 1.5`,
		"",
	}, "\n")
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
	got := FoldStats(outerStats{Inner: innerStats{Rate: 0.5, Hidden: 2}}, outerStats{Inner: innerStats{Rate: 0.25, Hidden: 3}})
	if got.Inner != (innerStats{Rate: 0.5, Hidden: 5}) {
		t.Fatalf("folded the nested fields to %+v, want the max rate and the summed count", got.Inner)
	}
}
