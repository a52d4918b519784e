package stats

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the mergeable sufficient statistics the out-of-core
// detection path is built on (DESIGN.md section 16). Each partial type
// accumulates evidence from one row window (a store segment, or a chunk of
// one), and Merge combines two partials into the partial of the
// concatenated windows. The merge algebra is exact:
//
//   - TablePartial: contingency cell counts are integers; merging sums them
//     cell-wise, and the resulting Table is bit-identical to TableFromCodes
//     over the concatenated code vectors.
//   - KendallPartial: concordance evidence reduces to integer pair counts
//     (discordant pairs, tie-run sizes) over the (x asc, y asc) sort order.
//     That order — and therefore every count — depends only on the multiset
//     of points, not on how the rows were split, so any merge tree yields
//     the same integers and the final float arithmetic (copied verbatim
//     from kendallFromPrep) yields the same bits as a single-shot Kendall.
//
// Pearson and Spearman have no partial: their float sums are
// order-sensitive, so the streaming CheckAll path leaves them resident-only.

// TablePartial accumulates a contingency table of dense code pairs. The
// zero value is ready to use; dimensions grow to cover the largest codes
// observed. Counts are int64, so the float64 cells produced by Table are
// exact integers bit-identical to TableFromCodes' repeated increments.
type TablePartial struct {
	kx, ky int     // observed dimensions: max code + 1 per axis
	stride int     // allocated row width (>= ky)
	counts []int64 // row-major slab, len = allocated rows * stride
}

// Observe adds one (x, y) code pair. Codes must be non-negative dense codes
// from a coder shared by every partial that will be merged together.
func (p *TablePartial) Observe(x, y int32) {
	if x < 0 || y < 0 {
		panic("stats: TablePartial observed a negative code")
	}
	p.ensure(int(x)+1, int(y)+1)
	p.counts[int(x)*p.stride+int(y)]++
}

// add accumulates n occurrences of the (x, y) cell; it is the bulk form
// Merge uses.
func (p *TablePartial) add(x, y int, n int64) {
	if n == 0 {
		return
	}
	p.ensure(x+1, y+1)
	p.counts[x*p.stride+y] += n
}

// ensure grows the slab so codes up to (kx-1, ky-1) are addressable,
// regridding rows when the column count outgrows the stride.
func (p *TablePartial) ensure(kx, ky int) {
	if ky > p.stride {
		stride := p.stride * 2
		if stride < ky {
			stride = ky
		}
		rows := len(p.counts) / max(p.stride, 1)
		if rows < kx {
			rows = kx
		}
		grown := make([]int64, rows*stride)
		for r := 0; r < p.kx; r++ {
			copy(grown[r*stride:r*stride+p.ky], p.counts[r*p.stride:r*p.stride+p.ky])
		}
		p.counts, p.stride = grown, stride
	}
	if kx*p.stride > len(p.counts) {
		rows := len(p.counts) / p.stride * 2
		if rows < kx {
			rows = kx
		}
		grown := make([]int64, rows*p.stride)
		copy(grown, p.counts)
		p.counts = grown
	}
	if kx > p.kx {
		p.kx = kx
	}
	if ky > p.ky {
		p.ky = ky
	}
}

// Merge folds o into p. Cell counts add; the merged dimensions cover both
// operands. o is not modified.
func (p *TablePartial) Merge(o *TablePartial) {
	for x := 0; x < o.kx; x++ {
		row := o.counts[x*o.stride : x*o.stride+o.ky]
		for y, n := range row {
			p.add(x, y, n)
		}
	}
}

// N is the total observation count.
func (p *TablePartial) N() int64 {
	var n int64
	for x := 0; x < p.kx; x++ {
		for y := 0; y < p.ky; y++ {
			n += p.counts[x*p.stride+y]
		}
	}
	return n
}

// Dims reports the observed table dimensions.
func (p *TablePartial) Dims() (kx, ky int) { return p.kx, p.ky }

// Table materializes the accumulated counts as a Table. Given codes from a
// shared dense coder, the result is bit-identical to TableFromCodes over
// the concatenation of every observed window.
func (p *TablePartial) Table() Table {
	t := NewTable(p.kx, p.ky)
	for x := 0; x < p.kx; x++ {
		for y := 0; y < p.ky; y++ {
			t[x][y] = float64(p.counts[x*p.stride+y])
		}
	}
	return t
}

// kendallRun is one sorted batch of paired observations: x ascending with
// x-ties broken by y ascending (the PrepKendall joint order), plus the
// count of strict y-descents (discordant pairs) within the batch.
type kendallRun struct {
	x, y []float64
	disc int64
}

// KendallPartial accumulates Kendall rank-correlation evidence over row
// windows. Append adds one window of paired observations; Merge combines
// two partials; Result finalizes with exactly the arithmetic — and exactly
// the errors — of a single-shot Kendall over the concatenated rows.
//
// Internally the points live in sorted runs folded binary-counter style
// (merge when the run below is no larger), so S sequential Appends of n
// total rows cost O(n log S) rather than O(n*S). A window containing NaN
// poisons the partial: the point storage is dropped and Result reports the
// same "contains NaN" error Kendall would, at the same row index.
type KendallPartial struct {
	runs []kendallRun
	n    int // rows appended, NaN rows included
	nan  int // append-order index of the first NaN observation, -1 if none
}

// NewKendallPartial returns an empty partial.
func NewKendallPartial() *KendallPartial { return &KendallPartial{nan: -1} }

// N is the number of observations appended so far.
func (p *KendallPartial) N() int { return p.n }

// Append adds one window of paired observations in row order. It panics on
// mismatched lengths (caller bug, mirroring TableFromCodes).
func (p *KendallPartial) Append(x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: KendallPartial window length mismatch %d vs %d", len(x), len(y)))
	}
	if p.nan >= 0 {
		p.n += len(x)
		return
	}
	for i := range x {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			p.poison(p.n + i)
			p.n += len(x)
			return
		}
	}
	if len(x) == 0 {
		return
	}
	run := kendallRun{x: append([]float64(nil), x...), y: append([]float64(nil), y...)}
	sort.Sort(kendallPointSorter{run})
	// The window's internal discordant pairs are the strict y-inversions in
	// its joint sort order, same as kendallFromPrep's full-sample count.
	ys := append([]float64(nil), run.y...)
	run.disc = countInversions(ys, make([]float64, len(ys)))
	p.n += len(x)
	p.push(run)
}

// Merge folds o into p, treating o's rows as following p's rows (this
// ordering only affects which NaN index is reported; the statistics are
// split-invariant). o is not modified.
func (p *KendallPartial) Merge(o *KendallPartial) {
	if o.nan >= 0 && p.nan < 0 {
		p.poison(p.n + o.nan)
	}
	p.n += o.n
	if p.nan >= 0 {
		p.runs = nil
		return
	}
	for _, r := range o.runs {
		p.push(kendallRun{
			x:    append([]float64(nil), r.x...),
			y:    append([]float64(nil), r.y...),
			disc: r.disc,
		})
	}
}

func (p *KendallPartial) poison(at int) {
	if p.nan < 0 || at < p.nan {
		p.nan = at
	}
	p.runs = nil
}

// push adds a run and folds the stack binary-counter style: merge while
// the run beneath the top is no larger than the top.
func (p *KendallPartial) push(r kendallRun) {
	p.runs = append(p.runs, r)
	for len(p.runs) >= 2 {
		a, b := p.runs[len(p.runs)-2], p.runs[len(p.runs)-1]
		if len(a.x) > len(b.x) {
			break
		}
		p.runs = p.runs[:len(p.runs)-2]
		p.runs = append(p.runs, mergeKendallRuns(a, b))
	}
}

// fold collapses every run into one. Safe to call on an empty partial.
func (p *KendallPartial) fold() kendallRun {
	for len(p.runs) >= 2 {
		a, b := p.runs[len(p.runs)-2], p.runs[len(p.runs)-1]
		p.runs = p.runs[:len(p.runs)-2]
		p.runs = append(p.runs, mergeKendallRuns(a, b))
	}
	if len(p.runs) == 0 {
		return kendallRun{}
	}
	return p.runs[0]
}

// Result finalizes the partial. Validation order (minimum size before NaN)
// and every arithmetic step match Kendall on the concatenated rows, so the
// result — or the error text — is bit-for-bit what the in-memory path
// produces.
func (p *KendallPartial) Result() (KendallResult, error) {
	if p.n < 2 {
		return KendallResult{}, fmt.Errorf("stats: Kendall needs at least 2 observations, got %d", p.n)
	}
	if p.nan >= 0 {
		return KendallResult{}, fmt.Errorf("stats: Kendall input contains NaN at %d", p.nan)
	}
	r := p.fold()
	n := p.n

	// Tie counts over the joint sort order, exactly kendallFromPrep's loop.
	var n2 int64
	var tx, txy tieAccumulator
	for i := 1; i < n; i++ {
		//scoded:lint-ignore floatcmp Kendall ties are defined by exact value equality
		sameX := r.x[i] == r.x[i-1]
		tx.step(sameX)
		//scoded:lint-ignore floatcmp Kendall ties are defined by exact value equality
		txy.step(sameX && r.y[i] == r.y[i-1])
	}
	n1 := tx.finish()
	n3 := txy.finish()

	xt := tieGroupSizes(r.x)
	yt := tieGroupSizes(r.y)
	for _, g := range yt {
		n2 += int64(g) * int64(g-1) / 2
	}

	n0 := int64(n) * int64(n-1) / 2
	nd := r.disc
	nc := n0 - n1 - n2 + n3 - nd

	res := KendallResult{
		Concordant: nc,
		Discordant: nd,
		TiesX:      n1,
		TiesY:      n2,
		TiesXY:     n3,
		N:          n,
	}
	num := float64(nc - nd)
	res.TauA = num / float64(n0)
	denom := math.Sqrt(float64(n0-n1) * float64(n0-n2))
	if denom <= 0 {
		// A constant column: tau-b undefined; report 0 correlation with p=1.
		res.TauB = 0
		res.Z = 0
		res.P = 1
		return res, nil
	}
	res.TauB = clampUnit(num / denom)

	res.Z, res.P = kendallZPFromTies(n, xt, yt, num)
	res.Approximate = n <= 60
	return res, nil
}

// Test adapts Result to the TestResult interface, mirroring KendallTest.
func (p *KendallPartial) Test() (TestResult, error) {
	k, err := p.Result()
	if err != nil {
		return TestResult{}, err
	}
	return kendallTestResult(k), nil
}

// kendallPointSorter orders a run by x ascending, x-ties by y ascending —
// PrepKendall's joint order. Equal (x, y) points are interchangeable, so
// an unstable sort is fine.
type kendallPointSorter struct{ r kendallRun }

func (s kendallPointSorter) Len() int { return len(s.r.x) }
func (s kendallPointSorter) Less(a, b int) bool {
	//scoded:lint-ignore floatcmp comparator tie-break needs exact equality for a total order
	if s.r.x[a] != s.r.x[b] {
		return s.r.x[a] < s.r.x[b]
	}
	return s.r.y[a] < s.r.y[b]
}
func (s kendallPointSorter) Swap(a, b int) {
	s.r.x[a], s.r.x[b] = s.r.x[b], s.r.x[a]
	s.r.y[a], s.r.y[b] = s.r.y[b], s.r.y[a]
}

// mergeKendallRuns merges two sorted runs into the sorted run of their
// union. Discordant pairs add: within-run inversions carry over, and the
// cross-run inversions (an earlier-sorted element of one run paired with a
// strictly smaller y from the other) are counted with a Fenwick tree over
// compressed y ranks. Cross pairs tied on x sort y-ascending, so the
// strict test skips them automatically — exactly how the single-shot
// inversion count treats x-tie blocks.
func mergeKendallRuns(a, b kendallRun) kendallRun {
	if len(a.x) == 0 {
		return b
	}
	if len(b.x) == 0 {
		return a
	}
	n := len(a.x) + len(b.x)
	ranks := make([]float64, 0, n)
	ranks = append(ranks, a.y...)
	ranks = append(ranks, b.y...)
	sort.Float64s(ranks)
	ranks = dedupFloats(ranks)

	m := kendallRun{
		x:    make([]float64, 0, n),
		y:    make([]float64, 0, n),
		disc: a.disc + b.disc,
	}
	bitA := newFenwick(len(ranks))
	bitB := newFenwick(len(ranks))
	var insA, insB int64
	i, j := 0, 0
	for i < len(a.x) || j < len(b.x) {
		takeA := j >= len(b.x)
		if !takeA && i < len(a.x) {
			//scoded:lint-ignore floatcmp comparator tie-break needs exact equality for a total order
			if a.x[i] != b.x[j] {
				takeA = a.x[i] < b.x[j]
			} else {
				takeA = a.y[i] <= b.y[j]
			}
		}
		if takeA {
			r := sort.SearchFloat64s(ranks, a.y[i]) + 1
			m.disc += insB - bitB.prefix(r)
			bitA.add(r)
			insA++
			m.x = append(m.x, a.x[i])
			m.y = append(m.y, a.y[i])
			i++
		} else {
			r := sort.SearchFloat64s(ranks, b.y[j]) + 1
			m.disc += insA - bitA.prefix(r)
			bitB.add(r)
			insB++
			m.x = append(m.x, b.x[j])
			m.y = append(m.y, b.y[j])
			j++
		}
	}
	return m
}

// dedupFloats removes adjacent duplicates from a sorted slice, in place.
func dedupFloats(s []float64) []float64 {
	out := s[:0]
	for i, v := range s {
		//scoded:lint-ignore floatcmp rank compression groups exactly-equal sorted values
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// fenwick is a Fenwick (binary indexed) tree over 1-based ranks counting
// inserted elements; prefix(r) is the count of inserts with rank <= r.
type fenwick struct{ tree []int64 }

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int64, n+1)} }

func (f *fenwick) add(r int) {
	for ; r < len(f.tree); r += r & -r {
		f.tree[r]++
	}
}

func (f *fenwick) prefix(r int) int64 {
	var s int64
	for ; r > 0; r -= r & -r {
		s += f.tree[r]
	}
	return s
}
