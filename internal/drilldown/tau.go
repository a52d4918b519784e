package drilldown

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/segtree"
)

// tauRec is one alive record of a stratum in the delta greedy's packed
// state: its position in the stratum's rows, the dense ranks of its x and y
// values within the stratum, and its concordant-minus-discordant pair sum
// over the stratum's alive records.
type tauRec struct {
	pos, rx, ry, contrib int32
}

// tauStratum holds the delta greedy's state for one conditioning stratum of
// a numeric constraint. Everything is an integer: the pair weight of two
// records is the product of the signs of their rank differences, so the
// contributions, the statistic and every score are exact.
type tauStratum struct {
	rows []int    // original row indices, by position
	recs []tauRec // alive records, compacted in ascending position order
	s    int64    // current nc - nd of the stratum

	// Delta-argmax cache (DESIGN.md §10): the index into recs of the
	// stratum's best candidate under the active greedy direction, and its
	// score. Valid between rounds — removing a record only mutates its own
	// stratum, so only the touched stratum is rescanned.
	best      int
	bestScore int64
}

// tauTopK runs the tau-statistic drill-down (Algorithm 2 plus the K / K^c
// greedy loops) on a numeric pair.
func tauTopK(ctx context.Context, d *relation.Relation, c sc.SC, k int, opts Options) (Result, error) {
	strataRows, strataKeys, err := strataFor(ctx, d, c, opts)
	if err != nil {
		return Result{}, err
	}
	total := 0
	for _, rows := range strataRows {
		total += len(rows)
	}
	if total < k {
		return Result{}, fmt.Errorf("drilldown: only %d records in testable strata, need k=%d", total, k)
	}
	// One arena per drill-down: every stratum's packed records are carved
	// out of one buffer, and the benefit-initialization scratch is reused
	// across strata, so the setup cost is a handful of allocations
	// independent of the stratum count, and the greedy rounds allocate
	// nothing.
	arena := make([]tauRec, total)
	strata := make(tauDelta, len(strataRows))
	var oracle tauLinear
	var scratch tauScratch
	used := 0
	for si, rows := range strataRows {
		x, y, err := tauValues(ctx, d, c, opts, strataKeys[si], rows)
		if err != nil {
			return Result{}, err
		}
		recs := arena[used : used+len(rows) : used+len(rows)]
		used += len(rows)
		strata[si] = tauStratum{rows: rows, recs: recs, s: scratch.initBenefits(recs, x, y)}
		if opts.linear {
			oracle = append(oracle, newLinearStratum(rows, x, y, recs))
		}
	}

	var g tauGreedy = strata
	if opts.linear {
		g = oracle
	}
	res := Result{Strategy: opts.resolve(c), InitialStat: g.stat()}
	switch res.Strategy {
	case K:
		res.Rows, err = g.greedy(ctx, k, c.Dependence, true)
	default:
		_, err = g.greedy(ctx, total-k, c.Dependence, false)
		res.Rows = g.survivors(k)
		sort.Ints(res.Rows)
	}
	if err != nil {
		return Result{}, err
	}
	res.FinalStat = g.stat()
	return res, nil
}

// tauGreedy is one implementation of the tau greedy over its own
// per-stratum state: the integer delta kernel (tauDelta) or the linear
// float oracle (tauLinear).
type tauGreedy interface {
	// stat is nc - nd summed over strata.
	stat() float64
	// greedy removes up to rounds records, the most improving (best) or
	// the most deteriorating, and returns them in removal order as
	// original row indices; the delta kernel returns them only when best.
	greedy(ctx context.Context, rounds int, dependence, best bool) ([]int, error)
	// survivors returns the alive records' original row indices; k is the
	// expected count (a capacity hint).
	survivors(k int) []int
}

// tauValues fetches one stratum's x and y values (shared read-only with the
// kernel cache) and enforces tau's input rule: every value must be ordered,
// so a NaN fails the drill naming its column and row, as stats.Kendall
// rejects it. ±Inf are ordered and tie with themselves.
func tauValues(ctx context.Context, d *relation.Relation, c sc.SC, opts Options, key string, rows []int) (x, y []float64, err error) {
	cols := [2]string{c.X[0], c.Y[0]}
	var vals [2][]float64
	for j, col := range cols {
		vals[j], err = opts.Cache.FloatsContext(ctx, d, col, key, rows)
		if err != nil {
			return nil, nil, fmt.Errorf("drilldown: %w", err)
		}
		for i, v := range vals[j] {
			if math.IsNaN(v) {
				return nil, nil, fmt.Errorf("drilldown: column %q holds NaN at row %d; the tau path needs ordered values", col, rows[i])
			}
		}
	}
	return vals[0], vals[1], nil
}

// tauDelta is the delta kernel's state: one packed stratum per
// conditioning stratum.
type tauDelta []tauStratum

// stat is exact: the sum is an integer far below 2^53.
func (strata tauDelta) stat() float64 {
	var s int64
	for i := range strata {
		s += strata[i].s
	}
	return float64(s)
}

func (strata tauDelta) survivors(k int) []int {
	out := make([]int, 0, k)
	for _, st := range strata {
		for _, r := range st.recs {
			out = append(out, st.rows[r.pos])
		}
	}
	return out
}

// scoreSign folds the constraint direction and the greedy direction into
// one factor: a candidate's score is scoreSign * (|s| - |s - contrib|),
// which is improvement() for the K strategy and its negation for K^c.
func scoreSign(dependence, best bool) int64 {
	if dependence == best {
		return -1
	}
	return 1
}

// greedy is the incremental argmax form of the greedy loop: each
// stratum caches its best candidate and an indexed max-heap over strata
// (segtree.MaxHeap, ids = stratum indices) yields the global argmax in
// O(log S). Removing a record only mutates its own stratum, so each round
// makes one fused pass over the touched stratum's alive records and
// re-keys it: O(alive n_z + log S) per round instead of the linear scan's
// O(n_total).
//
// Selection is row-for-row identical to the linear oracle: the integer scores
// equal the oracle's float scores exactly (every value is an integer below
// 2^53), untouched strata keep their cached scores, within-stratum ties
// keep the lowest record position (records stay in position order and the
// scan keeps the first maximum), and cross-strata ties keep the lowest
// stratum index (the heap's deterministic id tie-break).
func (strata tauDelta) greedy(ctx context.Context, rounds int, dependence, best bool) ([]int, error) {
	sign := scoreSign(dependence, best)
	h := segtree.NewMaxHeap()
	for si := range strata {
		if st := &strata[si]; st.rescanBest(sign) {
			h.Push(si, float64(st.bestScore))
		}
	}
	var removed []int // the K strategy's answer; K^c keeps the survivors instead
	if best {
		removed = make([]int, 0, rounds)
	}
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("drilldown: interrupted after %d greedy rounds: %w", round, err)
		}
		si, _, ok := h.Peek()
		if !ok {
			break
		}
		st := &strata[si]
		if best {
			removed = append(removed, st.rows[st.recs[st.best].pos])
		}
		if st.removeBest(sign) {
			h.Update(si, float64(st.bestScore))
		} else {
			h.Remove(si)
		}
	}
	return removed, nil
}

// rescanBest finds the stratum's best candidate without changing it: the
// lowest-index record among the maximal scores. It reports whether any
// candidate remains.
//
// Within a stratum |s| is fixed, so maximizing sign*(|s| - |s - c|) is
// maximizing the key -sign*|s - c|; the score is rebuilt from the winning
// key.
func (st *tauStratum) rescanBest(sign int64) bool {
	best, bestKey := -1, int64(math.MinInt64)
	for i, r := range st.recs {
		if key := -sign * abs64(st.s-int64(r.contrib)); key > bestKey {
			best, bestKey = i, key
		}
	}
	return st.setBest(best, bestKey, sign)
}

// removeBest takes the cached best candidate out of the stratum in one
// fused pass over the other alive records: each loses its pair weight with
// the removed record, the records after the removed slot move down one (so
// dead records are never visited again and position order is kept), and
// the new best candidate is tracked on the way. It reports whether any
// candidate remains.
func (st *tauStratum) removeBest(sign int64) bool {
	b, recs := st.best, st.recs
	gx, gy := recs[b].rx, recs[b].ry
	st.s -= int64(recs[b].contrib)
	s, neg := st.s, -sign
	best, bestKey := -1, int64(math.MinInt64)
	// Records before the removed slot stay put; those after it move down one.
	for j := 0; j < b; j++ {
		r := &recs[j]
		r.contrib -= sign32(gx-r.rx) * sign32(gy-r.ry)
		if key := neg * abs64(s-int64(r.contrib)); key > bestKey {
			best, bestKey = j, key
		}
	}
	for j := b + 1; j < len(recs); j++ {
		r := recs[j]
		r.contrib -= sign32(gx-r.rx) * sign32(gy-r.ry)
		recs[j-1] = r
		if key := neg * abs64(s-int64(r.contrib)); key > bestKey {
			best, bestKey = j-1, key
		}
	}
	st.recs = recs[:len(recs)-1]
	return st.setBest(best, bestKey, sign)
}

// setBest records a scan's winner; best is -1 when the stratum is empty.
func (st *tauStratum) setBest(best int, bestKey, sign int64) bool {
	st.best = best
	if best == -1 {
		return false
	}
	st.bestScore = sign*abs64(st.s) + bestKey
	return true
}

// sign32 is -1, 0 or 1 by the sign of v, without a branch.
func sign32(v int32) int32 {
	return v>>31 | int32(uint32(-v)>>31)
}

// abs64 is |v| without a branch (v is never math.MinInt64 here).
func abs64(v int64) int64 {
	m := v >> 63
	return (v ^ m) - m
}

// tauScratch holds the reusable buffers of the benefit initialization so a
// multi-stratum drill-down allocates the sort order, rank and Fenwick
// buffers once instead of once per stratum. The zero value is ready to use.
type tauScratch struct {
	order  []int
	ranks  []int
	sorted []float64
	t1, t2 *segtree.Fenwick
}

// initBenefits fills recs (parallel to x and y) with each record's position,
// its dense x and y ranks, and its concordant-minus-discordant pair sum, and
// returns the stratum's nc - nd. It runs in O(n log n) with two Fenwick-tree
// passes over the rank-compressed Y axis, exactly as in Algorithm 2: the
// ascending pass accounts for pairs with smaller X, the descending pass for
// pairs with larger X. Records tied on X are processed as a block — queried
// before any of the block is inserted — so X-ties contribute zero weight;
// the blocks, in ascending order, are the dense x ranks.
//
// x and y must be NaN-free (tauValues); -0 ties with +0 and each infinity
// with itself, as in stats.Kendall.
func (ts *tauScratch) initBenefits(recs []tauRec, x, y []float64) int64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	var distinct int
	ts.ranks, distinct, ts.sorted = segtree.CompressRanksInto(y, ts.ranks, ts.sorted)
	for i, r := range ts.ranks[:n] {
		recs[i] = tauRec{pos: int32(i), ry: int32(r)}
	}

	if cap(ts.order) < n {
		ts.order = make([]int, n)
	}
	order := ts.order[:n]
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(x[a], x[b]) })

	if ts.t1 == nil {
		ts.t1, ts.t2 = segtree.NewFenwick(distinct), segtree.NewFenwick(distinct)
	}
	// Ascending pass: tree T1 holds records with strictly smaller X.
	t1 := ts.t1
	t1.Reset(distinct)
	var rx int32
	for i := 0; i < n; rx++ {
		j := i
		for j+1 < n && cmp.Compare(x[order[j+1]], x[order[i]]) == 0 {
			j++
		}
		for _, id := range order[i : j+1] {
			r := &recs[id]
			r.rx = rx
			r.contrib += int32(t1.CountBelow(int(r.ry)) - t1.CountAbove(int(r.ry)))
		}
		for _, id := range order[i : j+1] {
			t1.Insert(int(recs[id].ry), 1)
		}
		i = j + 1
	}

	// Descending pass: tree T2 holds records with strictly larger X; the x
	// blocks are the ranks the ascending pass assigned.
	t2 := ts.t2
	t2.Reset(distinct)
	for i := n - 1; i >= 0; {
		j := i
		for j-1 >= 0 && recs[order[j-1]].rx == recs[order[i]].rx {
			j--
		}
		for _, id := range order[j : i+1] {
			r := &recs[id]
			r.contrib += int32(t2.CountAbove(int(r.ry)) - t2.CountBelow(int(r.ry)))
		}
		for _, id := range order[j : i+1] {
			t2.Insert(int(recs[id].ry), 1)
		}
		i = j - 1
	}

	var sum int64
	for _, r := range recs {
		sum += int64(r.contrib)
	}
	return sum / 2 // each pair counted from both endpoints
}

// initBenefits computes every record's concordant-minus-discordant pair sum
// with a one-shot scratch; kept for the property tests that pin the fast
// initialization against the naive O(n²) pair count.
func initBenefits(x, y []float64) []float64 {
	recs := make([]tauRec, len(x))
	var scratch tauScratch
	scratch.initBenefits(recs, x, y)
	benefit := make([]float64, len(x))
	for i, r := range recs {
		benefit[i] = float64(r.contrib)
	}
	return benefit
}
