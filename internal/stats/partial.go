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
//     the same integers, and kendallFinish — the one tau finalization,
//     shared with the resident KendallPrep — turns them into the same bits
//     as a single-shot Kendall.
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

// Observe adds the code pairs (xs[i], ys[i]), growing the table once for
// the whole batch. Codes must be non-negative dense codes from a coder
// shared by every partial that will be merged together. It panics on
// mismatched lengths.
func (p *TablePartial) Observe(xs, ys []int32) {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: TablePartial batch length mismatch %d vs %d", len(xs), len(ys)))
	}
	if len(xs) == 0 {
		return
	}
	var mx, my int32
	for i, x := range xs {
		y := ys[i]
		if x < 0 || y < 0 {
			panic("stats: TablePartial observed a negative code")
		}
		if x > mx {
			mx = x
		}
		if y > my {
			my = y
		}
	}
	p.ensure(int(mx)+1, int(my)+1)
	for i, x := range xs {
		p.counts[int(x)*p.stride+int(ys[i])]++
	}
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
	pts  []kendallPoint
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
	run := kendallRun{pts: jointSort(x, y)}
	run.disc, _ = discordantPairs(run.pts)
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
		p.push(kendallRun{pts: append([]kendallPoint(nil), r.pts...), disc: r.disc})
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
		if len(a.pts) > len(b.pts) {
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
	// The folded run is in the joint order, so x's tie groups are its x
	// runs; y is not sorted there and takes a gather-and-sort pass.
	xt, n3 := jointTies(r.pts)
	ys := make([]float64, len(r.pts))
	for i, pt := range r.pts {
		ys[i] = pt.y
	}
	sort.Float64s(ys)
	return kendallFinish(p.n, r.disc, tiedPairs(xt), n3, xt, runSizes(ys)), nil
}

// Test adapts Result to the TestResult interface, mirroring KendallTest.
func (p *KendallPartial) Test() (TestResult, error) {
	k, err := p.Result()
	if err != nil {
		return TestResult{}, err
	}
	return kendallTestResult(k), nil
}

// mergeKendallRuns merges two sorted runs into the sorted run of their
// union. Discordant pairs add: within-run inversions carry over, and the
// cross-run inversions (an earlier-sorted element of one run paired with a
// strictly smaller y from the other) are counted with a Fenwick tree over
// compressed y ranks. Cross pairs tied on x sort y-ascending, so the
// strict test skips them automatically — exactly how the single-shot
// inversion count treats x-tie blocks.
func mergeKendallRuns(a, b kendallRun) kendallRun {
	if len(a.pts) == 0 {
		return b
	}
	if len(b.pts) == 0 {
		return a
	}
	n := len(a.pts) + len(b.pts)
	ranks := make([]float64, 0, n)
	for _, pt := range a.pts {
		ranks = append(ranks, pt.y)
	}
	for _, pt := range b.pts {
		ranks = append(ranks, pt.y)
	}
	sort.Float64s(ranks)
	ranks = dedupFloats(ranks)

	m := kendallRun{pts: make([]kendallPoint, 0, n), disc: a.disc + b.disc}
	bitA := newFenwick(len(ranks))
	bitB := newFenwick(len(ranks))
	var insA, insB int64
	i, j := 0, 0
	for i < len(a.pts) || j < len(b.pts) {
		takeA := j >= len(b.pts)
		if !takeA && i < len(a.pts) {
			pa, pb := a.pts[i], b.pts[j]
			//scoded:lint-ignore floatcmp comparator tie-break needs exact equality for a total order
			if pa.x != pb.x {
				takeA = pa.x < pb.x
			} else {
				takeA = pa.y <= pb.y
			}
		}
		if takeA {
			r := sort.SearchFloat64s(ranks, a.pts[i].y) + 1
			m.disc += insB - bitB.prefix(r)
			bitA.add(r)
			insA++
			m.pts = append(m.pts, a.pts[i])
			i++
		} else {
			r := sort.SearchFloat64s(ranks, b.pts[j].y) + 1
			m.disc += insA - bitA.prefix(r)
			bitB.add(r)
			insB++
			m.pts = append(m.pts, b.pts[j])
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
