package main

import (
	"math"
	"sort"
)

// tailPermille is the fixed tail percentile of each workload, in
// per-mille: op_tail_ms is the latency at that rank. It never changes
// from run to run; instead every run keeps going past its time budget
// until at least minBeyond samples lie above the rank (see minOps).
//
// A served op is one session on one instance of the 41-instance mix and
// every run covers whole decks, so its latencies form 41 clusters (0.3
// to 85 ms, widely spaced at the top). p94 ranks 38.5 of 41: the middle of one
// instance's cluster rather than the edge between two, where the rank
// would flip between neighbouring instances from run to run.
var tailPermille = map[string]int{
	"halo":   950,
	"served": 940,
	"wire":   950,
}

// minBeyond is how many samples must lie beyond the tail percentile.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of the q-per-mille
// percentile of n samples: ceil(q*n/1000).
func rank(n, q int) int {
	r := (n*q + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// beyond returns how many of n samples lie above the q-per-mille rank.
func beyond(n, q int) int { return n - rank(n, q) }

// minOps returns the smallest sample count that leaves minBeyond
// samples beyond the q-per-mille rank.
func minOps(q int) int {
	n := 1
	for beyond(n, q) < minBeyond {
		n++
	}
	return n
}

// percentile returns the q-per-mille nearest-rank percentile of xs
// (which it sorts in place).
func percentile(xs []float64, q int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
