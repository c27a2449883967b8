package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	xs := seq(10) // 1..10
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.1, 1}, {0.11, 2}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.001, 1}} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("nearestRank(nil) = %v, want 0", got)
	}
}

// The p99 is reported only when at least ten samples lie beyond it;
// otherwise the tail falls back to the highest percentile that has ten, and
// to the maximum when that percentile would not be above the median.
func TestTailGuard(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
	}{
		{1100, 0.99},       // rank 1089, 11 beyond
		{1010, 0.99},       // rank 1000, 10 beyond
		{1000, 0.99},       // rank 990, 10 beyond
		{999, 989.0 / 999}, // p99 rank 990 leaves 9 beyond
		{100, 0.9},
		{30, 20.0 / 30},
		{21, 11.0 / 21},
		{20, 1}, // p50 is no tail: report the maximum
		{11, 1},
		{3, 1},
	} {
		q := tailQuantile(c.n)
		if math.Abs(q-c.wantQ) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, q, c.wantQ)
		}
		if q < 1 && beyond(c.n, q) < minBeyondTail {
			t.Errorf("tailQuantile(%d) = %v leaves %d samples beyond, want >= %d", c.n, q, beyond(c.n, q), minBeyondTail)
		}
	}
	if got := tail(seq(100)); got != 90 {
		t.Errorf("tail(1..100) = %v, want 90 (10 samples beyond)", got)
	}
	if got := tail(seq(30)); got != 20 {
		t.Errorf("tail(1..30) = %v, want 20 (10 samples beyond)", got)
	}
	if got := tail(seq(2000)); got != 1980 {
		t.Errorf("tail(1..2000) = %v, want p99 = 1980", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v, want 0", got)
	}
}
