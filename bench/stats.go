package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of an ascending
// slice by nearest rank: the smallest sample with at least p % of the
// samples at or below it. An empty slice yields 0.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps products like 0.999·10000 = 9990.000000000002 from
	// rounding up a rank.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailSupport is how many samples must lie beyond a percentile for it to be
// reported: with fewer the value is one scheduler stall, not a property of
// the system.
const tailSupport = 10

// maxSupportedPercentile returns the highest percentile that still has
// tailSupport samples beyond it, and its value. With n samples that is rank
// n-tailSupport, i.e. percentile 100·(n-tailSupport)/n. ok is false when the
// sample is too small to support any percentile.
func maxSupportedPercentile(sorted []int64) (pctl float64, value int64, ok bool) {
	n := len(sorted)
	if n <= tailSupport {
		return 0, 0, false
	}
	rank := n - tailSupport
	return 100 * float64(rank) / float64(n), sorted[rank-1], true
}

func sortInt64(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// medianFloat returns the median of vs (mean of the two middle values for an
// even count); 0 for an empty slice. vs is not modified.
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first quartile, median and third quartile of vs the
// way Python's statistics.quantiles(vs, n=4) computes them (exclusive
// method), which is what the driver applies to the repeats of a metric.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return vs[0], vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// Position i·(n+1)/4 on a 1-based scale, linearly interpolated
		// between the neighbouring samples (extrapolated at the ends, as
		// CPython does after clamping j).
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }
