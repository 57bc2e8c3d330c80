package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so sorting matters
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(1000)
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		got, ok := percentile(xs, tc.q)
		if !ok || got != tc.want {
			t.Errorf("p%g of 1..1000 = %v, %v; want %v, true", 100*tc.q, got, ok, tc.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true}, // exactly 10 beyond
		{999, 0.99, false}, // 9.99 beyond
		{20, 0.5, true},    // a median needs 20 samples
		{19, 0.5, false},
		{100, 0.9, true},
		{99, 0.9, false},
		{0, 0.5, false},
	} {
		if _, ok := percentile(seq(tc.n), tc.q); ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%g) ok = %v, want %v", tc.n, tc.q, ok, tc.ok)
		}
	}
	if _, err := mustPercentile("latency", seq(999), 0.99); err == nil {
		t.Error("mustPercentile accepted 999 samples for p99")
	}
}

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	xs := seq(1000)
	for i := 0; i < 20; i++ {
		xs[i] = math.Inf(1)
	}
	got, _ := percentile(xs, 0.99)
	if !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", got)
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
