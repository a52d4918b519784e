//scoded:hotpath
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// KendallResult reports Kendall rank-correlation statistics for a sample of
// paired observations.
type KendallResult struct {
	// TauA is the paper's statistic: (nc - nd) / C(n,2).
	TauA float64
	// TauB is the tie-corrected coefficient (nc-nd)/sqrt((n0-n1)(n0-n2)).
	TauB float64
	// Concordant, Discordant are the pair counts n_c(D) and n_d(D).
	Concordant, Discordant int64
	// TiesX, TiesY, TiesXY count pairs tied on x, on y, and on both.
	TiesX, TiesY, TiesXY int64
	// Z is the tie-corrected normal z-score of (nc - nd) under independence.
	Z float64
	// P is the two-sided p-value from the Gaussian approximation.
	P float64
	// N is the sample size.
	N int
	// Approximate is true when n <= 60, where the Gaussian approximation to
	// the tau null distribution is considered unreliable (NIST rule cited by
	// the paper).
	Approximate bool
}

// KendallPrep is the finished sufficient statistic of Kendall's tau for one
// fixed (x, y) sample: the integer pair counts of the joint sort and the
// tie group sizes of each column. Everything the result needs is here, so
// finishing a prep is O(#tie groups) arithmetic with no sort, merge or
// per-row memory. It is what the kernel cache memoizes per column pair and
// stratum; a prep is read-only and safe for concurrent reuse.
type KendallPrep struct {
	// N is the sample size.
	N int
	// Discordant is n_d, the pairs ordered oppositely on x and y.
	Discordant int64
	// TiesX and TiesXY count the pairs tied on x and on both x and y.
	TiesX, TiesXY int64
	// XTies and YTies are the tie group sizes of each column, in sorted
	// value order (the tieGroupSizes form kendallZPFromTies consumes).
	XTies, YTies []int
}

// PrepKendall validates the sample and computes its KendallPrep. The
// validation (length, minimum size, NaN) is exactly Kendall's, so the
// cached-prep path fails with byte-identical errors.
func PrepKendall(x, y []float64) (*KendallPrep, error) {
	n := len(x)
	if n != len(y) {
		return nil, fmt.Errorf("stats: Kendall length mismatch %d vs %d", n, len(y))
	}
	if n < 2 {
		return nil, fmt.Errorf("stats: Kendall needs at least 2 observations, got %d", n)
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			return nil, fmt.Errorf("stats: Kendall input contains NaN at %d", i)
		}
	}
	pts := jointSort(x, y)
	p := &KendallPrep{N: n}
	p.XTies, p.TiesXY = jointTies(pts)
	p.TiesX = tiedPairs(p.XTies)
	var ys []float64
	p.Discordant, ys = discordantPairs(pts)
	p.YTies = runSizes(ys)
	return p, nil
}

// Kendall computes Kendall's rank correlation between x and y in
// O(n log n) time using Knight's algorithm (merge-sort inversion counting
// with tie corrections), the method referenced by the paper [36].
func Kendall(x, y []float64) (KendallResult, error) {
	p, err := PrepKendall(x, y)
	if err != nil {
		return KendallResult{}, err
	}
	return kendallFromPrep(p), nil
}

// KendallPrepped is Kendall with the prep supplied by the caller (typically
// from the kernel cache). A nil prep falls back to the full computation.
// x and y are only checked against the prep's size. Results are
// bit-identical to Kendall on the same data.
func KendallPrepped(x, y []float64, p *KendallPrep) (KendallResult, error) {
	if p == nil {
		return Kendall(x, y)
	}
	if len(x) != len(y) || p.N != len(x) {
		return KendallResult{}, fmt.Errorf("stats: Kendall prep built for %d observations, got %d/%d",
			p.N, len(x), len(y))
	}
	return kendallFromPrep(p), nil
}

// kendallFromPrep finishes a prep. Both the prepped and unprepped entry
// points funnel here, so the two paths cannot diverge arithmetically.
func kendallFromPrep(p *KendallPrep) KendallResult {
	return kendallFinish(p.N, p.Discordant, p.TiesX, p.TiesXY, p.XTies, p.YTies)
}

// kendallFinish is the one tau finalization, shared by the resident prep
// and the streamed KendallPartial: from n, the discordant pairs nd, the
// pairs tied on x (n1) and on both (n3), and each column's tie groups, it
// derives n2, nc, tau-a, tau-b, z and p. The inputs are exact integers, so
// two paths that count the same sample produce the same bits.
func kendallFinish(n int, nd, n1, n3 int64, xt, yt []int) KendallResult {
	n0 := int64(n) * int64(n-1) / 2
	n2 := tiedPairs(yt)
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
		return res
	}
	res.TauB = clampUnit(num / denom)

	res.Z, res.P = kendallZPFromTies(n, xt, yt, num)
	res.Approximate = n <= 60
	return res
}

// kendallPoint is one paired observation, the element of the joint sort.
type kendallPoint struct{ x, y float64 }

// jointSort returns the points (x[i], y[i]) ordered by x ascending, x-ties
// by y ascending. Points equal on both are interchangeable, so the sort
// need not be stable: every count taken over the order is the same. Inputs
// must be NaN-free.
func jointSort(x, y []float64) []kendallPoint {
	pts := make([]kendallPoint, len(x))
	for i := range pts {
		pts[i] = kendallPoint{x[i], y[i]}
	}
	slices.SortFunc(pts, func(a, b kendallPoint) int {
		switch {
		case a.x < b.x:
			return -1
		case a.x > b.x:
			return 1
		case a.y < b.y:
			return -1
		case a.y > b.y:
			return 1
		}
		return 0
	})
	return pts
}

// jointTies reads joint-sorted points: xt is x's tie group sizes (the x
// runs) and n3 the pairs tied on both x and y (a run of r equal points
// contributes r(r-1)/2).
func jointTies(pts []kendallPoint) (xt []int, n3 int64) {
	xrun, run := 1, int64(0)
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		//scoded:lint-ignore floatcmp Kendall ties are defined by exact value equality
		if a.x != b.x {
			if xrun > 1 {
				xt = append(xt, xrun)
			}
			xrun, run = 1, 0
			continue
		}
		xrun++
		//scoded:lint-ignore floatcmp Kendall ties are defined by exact value equality
		if a.y == b.y {
			run++
			n3 += run
		} else {
			run = 0
		}
	}
	if xrun > 1 {
		xt = append(xt, xrun)
	}
	return xt, n3
}

// discordantPairs counts the discordant pairs of joint-sorted points: the
// strict inversions of their y sequence (a strict descent across different
// x; within an x-tie block y ascends, so it contributes none). The merge
// sort leaves the y values sorted, returned as ys.
func discordantPairs(pts []kendallPoint) (nd int64, ys []float64) {
	mem := make([]float64, 2*len(pts))
	ys, buf := mem[:len(pts)], mem[len(pts):]
	for i, pt := range pts {
		ys[i] = pt.y
	}
	return countInversions(ys, buf), ys
}

// tiedPairs is the number of pairs within tie groups of the given sizes: a
// group of r equal values contributes r(r-1)/2.
func tiedPairs(groups []int) int64 {
	var n int64
	for _, r := range groups {
		n += int64(r) * int64(r-1) / 2
	}
	return n
}

// kendallZP computes the tie-corrected variance of (nc - nd) under the null
// of independence and the resulting two-sided Gaussian p-value. The variance
// formula is the standard one (Kendall 1970; also used by scipy.stats
// kendalltau):
//
//	var = (v0 - vt - vu)/18 + v1 + v2
//
// with v0, vt, vu the n(n-1)(2n+5) terms and v1, v2 the joint-tie
// corrections.
func kendallZP(n int, x, y []float64, num float64) (z, p float64) {
	return kendallZPFromTies(n, tieGroupSizes(x), tieGroupSizes(y), num)
}

// kendallZPFromTies is kendallZP with the tie group sizes precomputed (they
// are part of KendallPrep). The groups must be in tieGroupSizes order so the
// float accumulation order — and hence the result bits — match exactly.
func kendallZPFromTies(n int, xt, yt []int, num float64) (z, p float64) {
	fn := float64(n)
	v0 := fn * (fn - 1) * (2*fn + 5)
	var vt, vu, sx1, sx2, sy1, sy2 float64
	for _, t := range xt {
		ft := float64(t)
		vt += ft * (ft - 1) * (2*ft + 5)
		sx1 += ft * (ft - 1)
		sx2 += ft * (ft - 1) * (ft - 2)
	}
	for _, u := range yt {
		fu := float64(u)
		vu += fu * (fu - 1) * (2*fu + 5)
		sy1 += fu * (fu - 1)
		sy2 += fu * (fu - 1) * (fu - 2)
	}
	v := (v0-vt-vu)/18 +
		sx1*sy1/(2*fn*(fn-1))
	if n > 2 {
		v += sx2 * sy2 / (9 * fn * (fn - 1) * (fn - 2))
	}
	if v <= 0 {
		return 0, 1
	}
	z = num / math.Sqrt(v)
	p = StdNormal.TwoSidedP(z)
	return z, p
}

// clampUnit clips rounding residue so that a mathematically exact ±1
// correlation reports as exactly ±1.
func clampUnit(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}

// tieGroupSizes returns the sizes of groups of equal values in v.
func tieGroupSizes(v []float64) []int {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return runSizes(s)
}

// runSizes returns the sizes (those above one) of the runs of equal values
// in sorted s, in order.
func runSizes(s []float64) []int {
	var out []int
	run := 1
	for i := 1; i < len(s); i++ {
		//scoded:lint-ignore floatcmp tie runs group exactly-equal sorted values
		if s[i] == s[i-1] {
			run++
			continue
		}
		if run > 1 {
			out = append(out, run)
		}
		run = 1
	}
	if run > 1 {
		out = append(out, run)
	}
	return out
}

// countInversions counts pairs (i, j), i < j, with v[i] > v[j], via
// bottom-up merge sort. It mutates v; buf must be the same length.
func countInversions(v, buf []float64) int64 {
	n := len(v)
	var inv int64
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n-width; lo += 2 * width {
			mid := lo + width
			hi := mid + width
			if hi > n {
				hi = n
			}
			inv += mergeCount(v, buf, lo, mid, hi)
		}
	}
	return inv
}

func mergeCount(v, buf []float64, lo, mid, hi int) int64 {
	copy(buf[lo:hi], v[lo:hi])
	i, j := lo, mid
	var inv int64
	for k := lo; k < hi; k++ {
		switch {
		case i >= mid:
			v[k] = buf[j]
			j++
		case j >= hi:
			v[k] = buf[i]
			i++
		case buf[j] < buf[i]:
			// Strict inequality: equal values are ties, not inversions.
			inv += int64(mid - i)
			v[k] = buf[j]
			j++
		default:
			v[k] = buf[i]
			i++
		}
	}
	return inv
}

// KendallNaive computes tau-a, tau-b and the pair counts by the O(n²)
// definition. It exists as a correctness oracle for tests and for the
// brute-force drill-down baseline. Like Kendall it orders ±Inf and ties
// -0 with +0; x and y must be NaN-free.
func KendallNaive(x, y []float64) KendallResult {
	n := len(x)
	var nc, nd, tX, tY, tXY int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// Compare, never subtract: Inf - Inf is NaN, and a product of
			// tiny differences can underflow to 0.
			dx := cmp.Compare(x[i], x[j])
			dy := cmp.Compare(y[i], y[j])
			switch {
			case dx == 0 && dy == 0:
				tXY++
				tX++
				tY++
			case dx == 0:
				tX++
			case dy == 0:
				tY++
			case dx == dy:
				nc++
			default:
				nd++
			}
		}
	}
	n0 := int64(n) * int64(n-1) / 2
	res := KendallResult{
		Concordant: nc, Discordant: nd,
		TiesX: tX, TiesY: tY, TiesXY: tXY, N: n,
	}
	if n0 > 0 {
		res.TauA = float64(nc-nd) / float64(n0)
		denom := math.Sqrt(float64(n0-tX) * float64(n0-tY))
		if denom > 0 {
			res.TauB = clampUnit(float64(nc-nd) / denom)
		}
	}
	res.Z, res.P = kendallZP(n, x, y, float64(nc-nd))
	return res
}

// KendallTest adapts Kendall to the TestResult interface used by the
// violation detector: the statistic is |tau-b| and the p-value is the
// two-sided Gaussian approximation.
func KendallTest(x, y []float64) (TestResult, error) {
	k, err := Kendall(x, y)
	if err != nil {
		return TestResult{}, err
	}
	return kendallTestResult(k), nil
}

// KendallTestPrepped is KendallTest with a caller-supplied (typically
// cached) KendallPrep; see KendallPrepped.
func KendallTestPrepped(x, y []float64, p *KendallPrep) (TestResult, error) {
	k, err := KendallPrepped(x, y, p)
	if err != nil {
		return TestResult{}, err
	}
	return kendallTestResult(k), nil
}

func kendallTestResult(k KendallResult) TestResult {
	return TestResult{
		Statistic:   math.Abs(k.TauB),
		P:           k.P,
		N:           k.N,
		Approximate: k.Approximate,
	}
}
