package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a percentile for it to be
// reported: p99.9 needs at least 10,000 samples.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule on the exact sorted values. ok is false when fewer
// than minTail samples lie beyond it. samples must be sorted ascending.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minTail {
		return 0, false
	}
	return sorted[rank-1], true
}

// sortedCopy returns samples sorted ascending without touching the input.
func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, 0 when b is 0 (a layer that did no work has no ratio).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
