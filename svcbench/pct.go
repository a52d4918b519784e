package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a timing may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported percentile for it
// to mean anything.
const minBeyond = 10

// percentile returns the nearest-rank q-th percentile of sorted (ascending)
// samples and how many samples lie strictly above that rank.
func percentile(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	// The tolerance keeps binary rounding of q (99.9 is inexact) from
	// pushing an exact rank up by one.
	rank := int(math.Ceil(q*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// highestTail picks the highest percentile of tailLadder with at least
// minBeyond samples beyond it. ok is false when even the median lacks them.
func highestTail(sorted []float64) (q, value float64, ok bool) {
	for _, q := range tailLadder {
		if v, beyond := percentile(sorted, q); beyond >= minBeyond {
			return q, v, true
		}
	}
	return 0, math.NaN(), false
}

// timing summarizes one operation's latencies in milliseconds.
type timing struct {
	N     int
	P50   float64
	TailQ float64
	Tail  float64
	// MaxQ is the highest percentile the sample count supports; the tail is
	// meaningful only when TailQ <= MaxQ.
	MaxQ float64
}

// summarize reports the median and the q-th percentile. q is fixed per
// workload rather than picked from the sample count, so a run that gets
// faster (more samples) still reports the same percentile as its parent.
func summarize(ds []time.Duration, q float64) timing {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	t := timing{N: len(ms), TailQ: q}
	t.P50, _ = percentile(ms, 50)
	t.Tail, _ = percentile(ms, q)
	t.MaxQ, _, _ = highestTail(ms)
	return t
}

// medianFloat is the median of unsorted values (NaN when empty).
func medianFloat(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianMS(ds []time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d) / float64(time.Millisecond)
	}
	return medianFloat(vs)
}
