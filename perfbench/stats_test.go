package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestPercentileExactOnKnownDistribution(t *testing.T) {
	// 1..100000 in random order: the nearest-rank q-quantile is q*n.
	n := 100_000
	xs := make([]float64, n)
	for i, v := range rand.New(rand.NewSource(1)).Perm(n) {
		xs[i] = float64(v + 1)
	}
	sorted := sortedCopy(xs)
	for _, c := range []struct{ q, want float64 }{{0.50, 50_000}, {0.99, 99_000}, {0.999, 99_900}} {
		got, ok := percentile(sorted, c.q)
		if !ok || got != c.want {
			t.Errorf("p%g = %v (ok %v), want %v", c.q*100, got, ok, c.want)
		}
	}
}

func TestPercentileMatchesExponentialQuantiles(t *testing.T) {
	// Exponential(1): the q-quantile is -ln(1-q). With 400k samples the
	// sample quantile is within 2% at p99.9.
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 400_000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	sorted := sortedCopy(xs)
	for _, q := range []float64{0.5, 0.99, 0.999} {
		got, ok := percentile(sorted, q)
		want := -math.Log(1 - q)
		if !ok || math.Abs(got-want)/want > 0.02 {
			t.Errorf("p%g = %.4f (ok %v), want %.4f within 2%%", q*100, got, ok, want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{10_000, 0.999, true}, // 10 samples beyond the 9,990th
		{9_999, 0.999, false},
		{1_000, 0.99, true},
		{999, 0.99, false},
		{0, 0.5, false},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, ok := percentile(xs, c.q); ok != c.ok {
			t.Errorf("n=%d q=%g: ok=%v, want %v", c.n, c.q, ok, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}
