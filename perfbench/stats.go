package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 needs at least 1,000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// method. ok is false when fewer than minBeyond samples lie beyond it, so
// the value would rest on a handful of observations. +Inf samples (failed
// requests) sort last: a failure misses every latency limit.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	// Nearest rank, guarded against q·n landing a hair above an integer.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// mustPercentile is percentile for a metric the run must report: a sample
// too small to support it is an error, never a silently weaker number.
func mustPercentile(name string, xs []float64, q float64) (float64, error) {
	v, ok := percentile(xs, q)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples cannot support p%g (needs %d beyond it)", name, len(xs), 100*q, minBeyond)
	}
	return v, nil
}

// median is the middle value (mean of the two middle ones for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio divides, reading 0/0 as 0 (a counter that never moved).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// finite maps +Inf (a percentile landing on a failed request) to the
// largest float JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
