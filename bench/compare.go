package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// e2eSpec is one end-to-end metric with its regression bound, as in
// BENCHMARK.json (a unit test keeps the two in step).
type e2eSpec struct {
	Name   string
	Unit   string
	Higher bool    // true when a higher value is better
	Bound  float64 // share of the baseline median it may worsen by
}

var e2eSpecs = []e2eSpec{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "1/s", true, 0.20},
	{"check_p50_ms", "ms", false, 0.20},
	{"check_p95_ms", "ms", false, 0.25},
	{"apply_p50_ms", "ms", false, 0.20},
	{"apply_p95_ms", "ms", false, 0.25},
	{"batch_p50_ms", "ms", false, 0.20},
	{"batch_p95_ms", "ms", false, 0.25},
	{"cpu_ms_per_op", "ms", false, 0.20},
	{"rss_peak_mb", "MB", false, 0.15},
}

// resultFile is what the all-workloads mode writes with -out.
type resultFile struct {
	Seconds int          `json:"seconds"`
	Seed    int64        `json:"seed"`
	Repeat  int          `json:"repeat"`
	Notes   []string     `json:"notes"`
	Claim   *string      `json:"claim"` // this benchmark's PR claims no gain: null
	Summary []summaryRow `json:"summary"`
	Runs    []*runResult `json:"runs"`
}

// summaryRow is one workload x metric over a file's runs.
type summaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Traced   bool    `json:"traced"`
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
}

// spread is the run-to-run spread as a share of the median: the
// distance between the quartiles with four or more runs, max - min with
// fewer.
func (s summaryRow) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	width := s.Max - s.Min
	if s.N >= 4 {
		width = s.Q3 - s.Q1
	}
	return width / math.Abs(s.Median) // obs.trace_overhead_fraction may be negative
}

// summarize folds runs into one row per workload x metric, in first-seen
// order. Null values are left out of a row's statistics.
func summarize(runs []*runResult) []summaryRow {
	type rowKey struct {
		workload, metric string
		traced           bool
	}
	vals := make(map[rowKey][]float64)
	units := make(map[rowKey]string)
	var order []rowKey
	for _, r := range runs {
		for _, m := range r.Metrics {
			k := rowKey{r.Workload, m.Name, r.Traced}
			if _, seen := units[k]; !seen {
				units[k] = m.Unit
				order = append(order, k)
			}
			if m.Value != nil {
				vals[k] = append(vals[k], *m.Value)
			}
		}
	}
	out := make([]summaryRow, 0, len(order))
	for _, k := range order {
		v := append([]float64(nil), vals[k]...)
		row := summaryRow{Workload: k.workload, Metric: k.metric, Unit: units[k], Traced: k.traced, N: len(v)}
		if len(v) > 0 {
			sort.Float64s(v)
			row.Q1, row.Median, row.Q3 = quartiles(v)
			row.Min, row.Max = v[0], v[len(v)-1]
		}
		out = append(out, row)
	}
	return out
}

func printSummary(rows []summaryRow) {
	fmt.Println("summary: workload metric median [q1 q3] unit n spread")
	for _, r := range rows {
		fmt.Printf("  %-14s %-40s %12.6g [%.6g %.6g] %-8s n=%d spread=%.3f\n",
			r.Workload, r.Metric, r.Median, r.Q1, r.Q3, r.Unit, r.N, r.spread())
	}
}

// verdictOf applies one bound to one row pair: "worse" when b's median
// is worse than a's by more than the bound, "unresolved" when either
// side's own spread is wider than the bound (the comparison cannot
// tell), "ok" otherwise.
func verdictOf(spec e2eSpec, a, b summaryRow) (string, float64) {
	change := 0.0
	if a.Median != 0 {
		change = (b.Median - a.Median) / a.Median
	}
	worse := change
	if spec.Higher {
		worse = -change
	}
	switch {
	case a.spread() > spec.Bound || b.spread() > spec.Bound:
		return "unresolved", change
	case worse > spec.Bound:
		return "worse", change
	default:
		return "ok", change
	}
}

func loadSummary(path string) (map[[2]string]summaryRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[[2]string]summaryRow)
	for _, r := range summarize(f.Runs) {
		if !r.Traced {
			out[[2]string{r.Workload, r.Metric}] = r
		}
	}
	return out, nil
}

// compareFiles prints one row per workload x end-to-end metric and
// fails when any row is worse.
func compareFiles(pathA, pathB string) error {
	a, err := loadSummary(pathA)
	if err != nil {
		return err
	}
	b, err := loadSummary(pathB)
	if err != nil {
		return err
	}
	worse := 0
	fmt.Printf("%-14s %-14s %12s %12s %8s %6s  %s\n", "workload", "metric", "a.median", "b.median", "change", "bound", "verdict")
	for _, w := range workloads {
		for _, spec := range e2eSpecs {
			ra, okA := a[[2]string{w.Name, spec.Name}]
			rb, okB := b[[2]string{w.Name, spec.Name}]
			if !okA || !okB || ra.N == 0 || rb.N == 0 {
				fmt.Printf("%-14s %-14s %12s %12s %8s %6.2f  missing\n", w.Name, spec.Name, "-", "-", "-", spec.Bound)
				continue
			}
			v, change := verdictOf(spec, ra, rb)
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-14s %-14s %12.6g %12.6g %+7.1f%% %6.2f  %s\n", w.Name, spec.Name, ra.Median, rb.Median, 100*change, spec.Bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows are worse than their bound", worse)
	}
	return nil
}
