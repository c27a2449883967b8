package main

import (
	"math"
	"sort"
)

// minBeyondTail is how many samples a reported tail percentile must have
// above it: a p99 over fewer than 1000 samples is an order statistic of a
// handful of requests and moves with every scheduling hiccup.
const minBeyondTail = 10

// nearestRank returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest sample with at least a q share of samples at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := rankOf(len(sorted), q)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond reports how many samples of a len-n set lie strictly above the
// nearest-rank q-quantile's rank.
func beyond(n int, q float64) int {
	return n - max(rankOf(n, q), 1)
}

// rankOf is the 1-based nearest rank of the q-quantile among n samples. The
// epsilon keeps q*n that is integral in exact arithmetic from rounding up.
func rankOf(n int, q float64) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

// tailQuantile returns the quantile a tail metric reports for n samples:
// 0.99 when at least minBeyondTail samples lie beyond it; otherwise the
// highest quantile that still leaves minBeyondTail beyond, as long as that is
// above the median; for fewer samples than that, the maximum.
func tailQuantile(n int) float64 {
	switch {
	case beyond(n, 0.99) >= minBeyondTail:
		return 0.99
	case n > 2*minBeyondTail:
		return float64(n-minBeyondTail) / float64(n)
	default:
		return 1
	}
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return nearestRank(sortedCopy(xs), 0.5) }

// tail is the guarded tail percentile of xs (see tailQuantile).
func tail(xs []float64) float64 { return nearestRank(sortedCopy(xs), tailQuantile(len(xs))) }

// maxOf returns the largest sample, 0 for none.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// geomean is the geometric mean of positive samples, 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	l := 0.0
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
