package drilldown

import (
	"cmp"
	"context"
	"fmt"
	"math"
)

// tauLinearStratum is the linear oracle's state for one conditioning
// stratum: the raw float values, float contributions and an alive mask,
// updated with pairWeight on the values themselves. It shares nothing with
// the delta kernel's packed integer state but the Algorithm 2
// initialization.
type tauLinearStratum struct {
	rows    []int     // original row indices
	x, y    []float64 // column values, parallel to rows
	contrib []float64 // per-record concordant-minus-discordant pair sum
	alive   []bool
	s       float64 // current nc - nd of the stratum
}

// newLinearStratum builds the oracle's float state from the stratum's values
// and its initialized records.
func newLinearStratum(rows []int, x, y []float64, recs []tauRec) *tauLinearStratum {
	st := &tauLinearStratum{rows: rows, x: x, y: y,
		contrib: make([]float64, len(rows)), alive: make([]bool, len(rows))}
	for i, r := range recs {
		st.contrib[i] = float64(r.contrib)
		st.alive[i] = true
		st.s += st.contrib[i]
	}
	st.s /= 2 // each pair counted from both endpoints
	return st
}

// tauLinear is the linear oracle behind TopKLinear.
type tauLinear []*tauLinearStratum

func (strata tauLinear) stat() float64 {
	var s float64
	for _, st := range strata {
		s += st.s
	}
	return s
}

func (strata tauLinear) survivors(k int) []int {
	out := make([]int, 0, k)
	for _, st := range strata {
		for i, ok := range st.alive {
			if ok {
				out = append(out, st.rows[i])
			}
		}
	}
	return out
}

// greedy removes `rounds` records one at a time with the seed-era
// full rescan: every round scans every alive record of every stratum. When
// best is true each round removes the record whose removal most improves the
// objective (the K strategy); when false, the record whose removal most
// deteriorates it (the K^c strategy). Removed records are returned in
// removal order as original row indices.
//
// The objective is sum over strata of |nc - nd|, minimized for an ISC and
// maximized for a DSC. Removing record i from stratum z changes the
// stratum's statistic from s to s - contrib(i), so the improvement is
// computable in O(1) per candidate; each round scans the alive records and
// then updates the contributions of the removed record's stratum in O(n_z).
//
// This is the reference implementation behind TopKLinear: the delta-argmax
// fast path must match it row for row (delta_identity_test.go), and
// internal/drillbench reports the speedup of the fast path against it.
func (strata tauLinear) greedy(ctx context.Context, rounds int, dependence, best bool) ([]int, error) {
	removed := make([]int, 0, rounds)
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("drilldown: interrupted after %d greedy rounds: %w", round, err)
		}
		selStratum, selIdx := -1, -1
		var selScore float64
		for si, st := range strata {
			for i, ok := range st.alive {
				if !ok {
					continue
				}
				impr := improvement(st.s, st.contrib[i], dependence)
				score := impr
				if !best {
					score = -impr
				}
				if selIdx == -1 || score > selScore {
					selStratum, selIdx, selScore = si, i, score
				}
			}
		}
		if selIdx == -1 {
			break
		}
		strata[selStratum].removeRecord(selIdx)
		removed = append(removed, strata[selStratum].rows[selIdx])
	}
	return removed, nil
}

// removeRecord takes record i out of the stratum and updates the surviving
// contributions: pair weights with the removed record disappear.
func (st *tauLinearStratum) removeRecord(i int) {
	st.alive[i] = false
	st.s -= st.contrib[i]
	xi, yi := st.x[i], st.y[i]
	for j, ok := range st.alive {
		if !ok {
			continue
		}
		st.contrib[j] -= pairWeight(xi, yi, st.x[j], st.y[j])
	}
}

// improvement is the objective gain from removing a record with the given
// contribution from a stratum with statistic s: for an ISC (dependence
// false) the objective is to shrink |s|; for a DSC to grow it.
func improvement(s, contrib float64, dependence bool) float64 {
	delta := math.Abs(s) - math.Abs(s-contrib)
	if dependence {
		return -delta
	}
	return delta
}

// pairWeight is 1 for a concordant pair, -1 for discordant, 0 for tied. It
// compares rather than subtracts, so two equal infinities tie (Inf - Inf
// would be NaN).
func pairWeight(x1, y1, x2, y2 float64) float64 {
	return float64(cmp.Compare(x1, x2) * cmp.Compare(y1, y2))
}
