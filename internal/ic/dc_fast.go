package ic

import (
	"sort"

	"scoded/internal/relation"
	"scoded/internal/segtree"
)

// Fast violation counting for denial constraints whose predicates are
// (a) equality self-joins (r1[C] = r2[C]) — handled by grouping — plus
// (b) at most two ordered comparisons. All three Table 3 constraint shapes
// (MonotoneDC, CrossMonotoneDC, ConditionalMonotoneDC) fit this form, so
// DCDetect's counting drops from O(n²) to O(n log n): per record, the set
// of partners satisfying two ordered predicates is a 2-D dominance query,
// answered offline with a plane sweep over one dimension and a Fenwick
// tree over the other.

// fastEligible reports whether the fast path applies.
func (dc DC) fastEligible() bool {
	ordered := 0
	for _, p := range dc.Preds {
		switch p.Op {
		case Eq:
			if p.Left != p.Right {
				return false
			}
		case Neq:
			return false
		default:
			ordered++
		}
	}
	return ordered >= 1 && ordered <= 2
}

// Violations counts, for each record, the number of ordered pairs it
// participates in that violate the constraint, dispatching to the
// O(n log n) dominance-counting path when the constraint shape allows and
// falling back to the exhaustive scan otherwise.
func (dc DC) Violations(d *relation.Relation) ([]int, error) {
	if err := dc.Validate(d); err != nil {
		return nil, err
	}
	if dc.fastEligible() {
		return dc.violationsFast(d)
	}
	return dc.violationsNaive(d)
}

// violationsNaive is the exhaustive O(n²) reference implementation.
func (dc DC) violationsNaive(d *relation.Relation) ([]int, error) {
	n := d.NumRows()
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if dc.holdsPair(d, i, j) {
				counts[i]++
				counts[j]++
			}
		}
	}
	return counts, nil
}

// violationsFast groups rows on the equality predicates and runs the
// dominance counting within each group.
func (dc DC) violationsFast(d *relation.Relation) ([]int, error) {
	var eqCols []string
	var ordered []Pred
	for _, p := range dc.Preds {
		if p.Op == Eq {
			eqCols = append(eqCols, p.Left)
		} else {
			ordered = append(ordered, p)
		}
	}
	counts := make([]int, d.NumRows())
	groups := [][]int{}
	if len(eqCols) == 0 {
		rows := make([]int, d.NumRows())
		for i := range rows {
			rows[i] = i
		}
		groups = append(groups, rows)
	} else {
		byKey := d.GroupByFlat(eqCols)
		for _, k := range relation.SortedGroupKeys(byKey) {
			groups = append(groups, byKey[k])
		}
	}
	for _, rows := range groups {
		if err := countOrderedViolations(d, ordered, rows, counts); err != nil {
			return nil, err
		}
	}
	return counts, nil
}

// countOrderedViolations adds, for every row in the group, the number of
// group partners j such that the ordered predicates hold for the pair
// (r1=row, r2=j) — counted from both endpoints' perspectives.
func countOrderedViolations(d *relation.Relation, preds []Pred, rows []int, counts []int) error {
	m := len(rows)
	if m < 2 {
		return nil
	}
	// Each ordered predicate l_p(r1) op r_p(r2) is normalized so that it
	// reads "point ⋖ threshold", where the point is the partner's value
	// and the threshold the fixed record's:
	//
	//   role r1 = i (partner j supplies r_p):
	//     l > r  ⇔ r < l           l >= r ⇔ r <= l
	//     l < r  ⇔ -r < -l         l <= r ⇔ -r <= -l
	//   role r2 = i (partner j supplies l_p):
	//     l > r  ⇔ -l < -r         l >= r ⇔ -l <= -r
	//     l < r  ⇔ l < r           l <= r ⇔ l <= r
	//
	// Negation preserves strictness, so the sweep only needs a strict
	// flag per dimension.
	buildDims := func(asR1 bool) ([]dim, error) {
		dims := make([]dim, len(preds))
		for pi, p := range preds {
			lc, err := d.Column(p.Left)
			if err != nil {
				return nil, err
			}
			rc, err := d.Column(p.Right)
			if err != nil {
				return nil, err
			}
			var points, thresholds []float64
			for _, r := range rows {
				if asR1 {
					points = append(points, rc.Value(r))
					thresholds = append(thresholds, lc.Value(r))
				} else {
					points = append(points, lc.Value(r))
					thresholds = append(thresholds, rc.Value(r))
				}
			}
			dd := dim{point: points, threshold: thresholds}
			var flip bool
			switch p.Op {
			case Gt:
				dd.strict, flip = true, !asR1
			case Ge:
				dd.strict, flip = false, !asR1
			case Lt:
				dd.strict, flip = true, asR1
			case Le:
				dd.strict, flip = false, asR1
			}
			if flip {
				for i := range dd.point {
					dd.point[i] = -dd.point[i]
					dd.threshold[i] = -dd.threshold[i]
				}
			}
			dims[pi] = dd
		}
		return dims, nil
	}

	for _, asR1 := range []bool{true, false} {
		dims, err := buildDims(asR1)
		if err != nil {
			return err
		}
		var per []int64
		if len(dims) == 1 {
			per = count1D(dims[0])
		} else {
			per = count2D(dims[0], dims[1])
		}
		for gi, r := range rows {
			c := per[gi]
			// Exclude the self-pair when (i, i) satisfies every predicate.
			self := true
			for _, dd := range dims {
				if dd.strict {
					if !(dd.point[gi] < dd.threshold[gi]) {
						self = false
					}
				} else if !(dd.point[gi] <= dd.threshold[gi]) {
					self = false
				}
			}
			if self {
				c--
			}
			counts[r] += int(c)
		}
	}
	return nil
}

// dim is one normalized constraint dimension: per group row, the value it
// contributes as a partner (point) and the value it queries with
// (threshold), under a strict or non-strict "less than".
type dim struct {
	point     []float64
	threshold []float64
	strict    bool
}

// count1D returns, per group index, the number of points satisfying the
// single normalized constraint point ⋖ threshold[i].
func count1D(dd dim) []int64 {
	sorted := append([]float64(nil), dd.point...)
	sort.Float64s(sorted)
	out := make([]int64, len(dd.point))
	for i, t := range dd.threshold {
		var idx int
		if dd.strict {
			idx = sort.SearchFloat64s(sorted, t) // first >= t ⇒ count of < t
		} else {
			idx = sort.Search(len(sorted), func(k int) bool { return sorted[k] > t })
		}
		out[i] = int64(idx)
	}
	return out
}

// count2D answers the dominance queries offline: sweep group entries in
// ascending dim-a threshold order, inserting points whose dim-a value has
// become eligible into a Fenwick tree keyed by dim-b rank, then range-count
// the dim-b constraint.
func count2D(a, b dim) []int64 {
	m := len(a.point)
	// Rank-compress dim-b points.
	bSorted := append([]float64(nil), b.point...)
	sort.Float64s(bSorted)
	uniq := bSorted[:0]
	for i, v := range bSorted {
		//scoded:lint-ignore floatcmp deduplicating sorted values requires exact equality
		if i == 0 || v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	rankOf := func(v float64) int { return sort.SearchFloat64s(uniq, v) }

	// Points sorted by dim-a value; queries by dim-a threshold.
	pIdx := make([]int, m)
	qIdx := make([]int, m)
	for i := range pIdx {
		pIdx[i] = i
		qIdx[i] = i
	}
	sort.Slice(pIdx, func(x, y int) bool { return a.point[pIdx[x]] < a.point[pIdx[y]] })
	sort.Slice(qIdx, func(x, y int) bool { return a.threshold[qIdx[x]] < a.threshold[qIdx[y]] })

	tree := segtree.NewFenwick(len(uniq))
	out := make([]int64, m)
	pi := 0
	for _, q := range qIdx {
		t := a.threshold[q]
		for pi < m {
			v := a.point[pIdx[pi]]
			if (a.strict && v < t) || (!a.strict && v <= t) {
				tree.Insert(rankOf(b.point[pIdx[pi]]), 1)
				pi++
			} else {
				break
			}
		}
		// Count inserted points meeting the dim-b constraint.
		bt := b.threshold[q]
		var hi int
		if b.strict {
			hi = sort.SearchFloat64s(uniq, bt) - 1 // last value < bt
		} else {
			hi = sort.Search(len(uniq), func(k int) bool { return uniq[k] > bt }) - 1
		}
		if hi >= 0 {
			out[q] = tree.Query(0, hi)
		}
	}
	return out
}
