package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice: the smallest value with at least p of the samples at
// or below it. An empty slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// mean returns the arithmetic mean; 0 for no values.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// median returns the middle value (mean of the two middle values for an
// even count) without reordering its argument.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vals, n=4) gives (the default "exclusive"
// method), so spreads computed here match the ones the benchmark's
// driver computes. Fewer than two values yield that value three times.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// sample is one answered request as the load generator saw it.
type sample struct {
	endNs int64 // completion time, ns since the window opened
	latNs int64
	class uint8
	ok    bool // 2xx with the verdict the generator expected
}

// classLatencies returns the ascending latencies (ms) of the window's
// successful requests of one class.
func classLatencies(samples []sample, class uint8) []float64 {
	var out []float64
	for _, s := range samples {
		if s.class == class && s.ok {
			out = append(out, float64(s.latNs)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// sliceQuantileMedian cuts the window into equal slices by completion
// time, takes the p-quantile of one class's latencies inside each
// slice, and returns the median of those — so one machine stall moves
// one slice, not the metric. Each slice's quantile is divided by that
// slice's entry of scale (the machine's speed factor while the slice
// ran; nil leaves the values raw). Slices with no sample of the class
// are skipped; the count of samples used is returned alongside.
func sliceQuantileMedian(samples []sample, class uint8, windowNs int64, slices int, p float64, scale []float64) (float64, int) {
	if slices < 1 || windowNs <= 0 {
		return 0, 0
	}
	per := make([][]float64, slices)
	used := 0
	for _, s := range samples {
		if s.class != class || !s.ok {
			continue
		}
		i := int(s.endNs * int64(slices) / windowNs)
		if i < 0 || i >= slices {
			continue
		}
		per[i] = append(per[i], float64(s.latNs)/1e6)
		used++
	}
	var qs []float64
	for i, lat := range per {
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		q := percentile(lat, p)
		if scale != nil {
			q /= scale[i]
		}
		qs = append(qs, q)
	}
	return median(qs), used
}

// histQuantile estimates the p-quantile of a cumulative-bucket
// histogram delta (upper bounds ascending, last may be +Inf), placing
// the quantile log-linearly inside its bucket — the daemon's buckets
// are powers of two. It returns 0 for an empty histogram.
func histQuantile(bounds []float64, cum []float64, p float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] <= 0 {
		return 0
	}
	target := p * cum[len(cum)-1]
	for i, c := range cum {
		if c < target {
			continue
		}
		hi := bounds[i]
		if math.IsInf(hi, 1) {
			if i == 0 {
				return 0
			}
			return bounds[i-1]
		}
		lo, below := hi/2, 0.0
		if i > 0 {
			lo, below = bounds[i-1], cum[i-1]
		}
		in := c - below
		if in <= 0 {
			return hi
		}
		frac := (target - below) / in
		return lo * math.Pow(hi/lo, frac)
	}
	return bounds[len(bounds)-1]
}
