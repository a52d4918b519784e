// Package stream implements the paper's Section 8 "incremental on-line
// SCODED" future-work direction: monitors that maintain an approximate SC
// over a stream of record insertions (and optional sliding-window
// evictions) without re-running detection from scratch.
//
// The categorical monitor maintains the G statistic in O(1) amortized per
// update, using the marginal-decomposed form
// G = 2(Σ O lnO − Σ R lnR − Σ C lnC + N lnN): an insertion touches one
// cell, one row marginal, one column marginal and N. The three running
// sums are Kahan-compensated and periodically re-anchored by an exact
// recomputation from the integer cell counts, so the incremental G agrees
// with a from-scratch batch recompute to ~1e-12 even after arbitrarily
// long windows of turnover. The delta path allocates nothing in steady
// state: the FIFO window is a ring buffer and every map key it touches
// already exists.
//
// The numeric monitor maintains the Kendall pair sum n_c − n_d exactly as
// an integer through a Fenwick-tree concordance index over compressed
// ranks (internal/segtree): each insert or evict costs amortized
// O(√(w log w)) — polylogarithmic queries against a rank-compressed
// snapshot plus a bounded delta-buffer scan — instead of the seed-era O(w)
// walk over every resident point. Tie aggregates for the tie-corrected
// z-score are maintained in O(1) per update. Both conditional monitors
// inherit the incremental kernels through their per-stratum sub-monitors.
package stream

import (
	"fmt"
	"math"
	"sort"

	"scoded/internal/stats"
)

// Verdict is a monitor's current judgement of its constraint.
type Verdict struct {
	// Statistic is the current test statistic (G, or the tie-corrected
	// Kendall z-score).
	Statistic float64
	// P is the current p-value.
	P float64
	// DF is the chi-squared degrees of freedom (categorical only).
	DF int
	// N is the number of records currently in the window.
	N int
	// Violated applies Algorithm 1's rule with the monitor's constraint
	// direction and alpha: an ISC is violated when p < α, a DSC when
	// p >= α.
	Violated bool
}

// decide applies the violation rule.
func decide(p, alpha float64, dependence bool) bool {
	if dependence {
		return p >= alpha
	}
	return p < alpha
}

// anchorEvery bounds how many cell-delta mutations the categorical sums
// accumulate before an exact re-anchor from the integer counts. 256 keeps
// the compensated drift well under the 1e-12 differential budget while
// amortizing the O(cells) recompute to a fraction of a map update.
const anchorEvery = 256

// CategoricalMonitor tracks an SC between two categorical variables.
type CategoricalMonitor struct {
	alpha      float64
	dependence bool
	window     int

	joint   map[[2]string]int
	rowMarg map[string]int
	colMarg map[string]int
	n       int

	// Incrementally maintained Σ x lnx aggregates (Kahan-compensated,
	// re-anchored every anchorEvery mutations).
	sumOlnO, sumRlnR, sumClnC ksum
	mutations                 int
	anchorScratch             []int // reused by anchor; holds sorted counts

	fifo pairRing
}

// NewCategoricalMonitor creates a monitor for X ⊥ Y (dependence=false) or
// X ⊥̸ Y (dependence=true) at significance alpha. window > 0 bounds the
// number of retained records (FIFO eviction); 0 means unbounded.
func NewCategoricalMonitor(alpha float64, dependence bool, window int) (*CategoricalMonitor, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("stream: alpha %v out of [0,1]", alpha)
	}
	if window < 0 {
		return nil, fmt.Errorf("stream: negative window %d", window)
	}
	return &CategoricalMonitor{
		alpha:      alpha,
		dependence: dependence,
		window:     window,
		joint:      make(map[[2]string]int),
		rowMarg:    make(map[string]int),
		colMarg:    make(map[string]int),
	}, nil
}

func deltaXlnX(oldV int, d int) float64 {
	return xlnx(float64(oldV+d)) - xlnx(float64(oldV))
}

func xlnx(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x * math.Log(x)
}

// ksum is a Kahan-compensated running sum: add/subtract drift stays at a
// few ulps regardless of how many deltas pass through between anchors.
type ksum struct{ v, c float64 }

func (k *ksum) add(x float64) {
	y := x - k.c
	t := k.v + y
	k.c = (t - k.v) - y
	k.v = t
}

func (k *ksum) value() float64 { return k.v }

// Insert adds one record, evicting the oldest when the window is full.
func (m *CategoricalMonitor) Insert(x, y string) {
	if m.window > 0 && m.n >= m.window {
		old := m.fifo.popFront()
		m.remove(old[0], old[1])
	}
	m.add(x, y)
	if m.window > 0 {
		m.fifo.push([2]string{x, y})
	}
}

// Remove deletes one occurrence of (x, y); it errors if none is present.
// It is intended for callers managing their own retention policy (window
// must be 0).
func (m *CategoricalMonitor) Remove(x, y string) error {
	if m.window > 0 {
		return fmt.Errorf("stream: Remove on a windowed monitor; the window evicts automatically")
	}
	if m.joint[[2]string{x, y}] == 0 {
		return fmt.Errorf("stream: no record (%q, %q) to remove", x, y)
	}
	m.remove(x, y)
	return nil
}

func (m *CategoricalMonitor) add(x, y string) {
	key := [2]string{x, y}
	m.sumOlnO.add(deltaXlnX(m.joint[key], 1))
	m.sumRlnR.add(deltaXlnX(m.rowMarg[x], 1))
	m.sumClnC.add(deltaXlnX(m.colMarg[y], 1))
	m.joint[key]++
	m.rowMarg[x]++
	m.colMarg[y]++
	m.n++
	m.bumpAnchor()
}

func (m *CategoricalMonitor) remove(x, y string) {
	key := [2]string{x, y}
	m.sumOlnO.add(deltaXlnX(m.joint[key], -1))
	m.sumRlnR.add(deltaXlnX(m.rowMarg[x], -1))
	m.sumClnC.add(deltaXlnX(m.colMarg[y], -1))
	m.joint[key]--
	if m.joint[key] == 0 {
		delete(m.joint, key)
	}
	m.rowMarg[x]--
	if m.rowMarg[x] == 0 {
		delete(m.rowMarg, x)
	}
	m.colMarg[y]--
	if m.colMarg[y] == 0 {
		delete(m.colMarg, y)
	}
	m.n--
	m.bumpAnchor()
}

func (m *CategoricalMonitor) bumpAnchor() {
	m.mutations++
	if m.mutations >= anchorEvery {
		m.anchor()
	}
}

// anchor recomputes the three running sums exactly from the integer
// counts, discarding any accumulated floating drift. Each sum runs over
// the counts in sorted order, never map order, so replaying the same
// records yields bit-identical G and p in every process. Cost is
// O(cells log cells), amortized over anchorEvery mutations; the sort
// scratch is reused, so it allocates nothing once grown.
func (m *CategoricalMonitor) anchor() {
	m.mutations = 0
	m.sumOlnO = sortedXlnxSum(&m.anchorScratch, m.joint)
	m.sumRlnR = sortedXlnxSum(&m.anchorScratch, m.rowMarg)
	m.sumClnC = sortedXlnxSum(&m.anchorScratch, m.colMarg)
}

// sortedXlnxSum Kahan-sums x ln x over the map's counts in ascending
// order, collecting them in the reused scratch slice.
func sortedXlnxSum[K comparable](scratch *[]int, counts map[K]int) ksum {
	buf := (*scratch)[:0]
	for _, v := range counts {
		buf = append(buf, v)
	}
	sort.Ints(buf)
	var k ksum
	for _, v := range buf {
		k.add(xlnx(float64(v)))
	}
	*scratch = buf
	return k
}

// N returns the current record count.
func (m *CategoricalMonitor) N() int { return m.n }

// G returns the current G statistic.
func (m *CategoricalMonitor) G() float64 {
	g := 2 * (m.sumOlnO.value() - m.sumRlnR.value() - m.sumClnC.value() + xlnx(float64(m.n)))
	if g < 0 {
		return 0
	}
	return g
}

// Verdict evaluates the constraint on the current window.
func (m *CategoricalMonitor) Verdict() Verdict {
	df := (len(m.rowMarg) - 1) * (len(m.colMarg) - 1)
	v := Verdict{Statistic: m.G(), DF: df, N: m.n}
	if df <= 0 {
		v.P = 1
	} else {
		v.P = stats.ChiSquared{K: float64(df)}.Survival(v.Statistic)
	}
	v.Violated = decide(v.P, m.alpha, m.dependence)
	return v
}

// NumericMonitor tracks an SC between two numeric variables via the
// Kendall pair sum with tie-corrected Gaussian p-values. Inserts and
// window evictions cost amortized O(√(w log w)) through the concordance
// index; the pair sum is maintained exactly as an integer.
//
// Observations must be finite: feed data through InsertBatch (which
// rejects NaN/±Inf) or validate before calling Insert, whose statistics
// are undefined under non-finite inputs.
type NumericMonitor struct {
	alpha      float64
	dependence bool
	window     int

	win pointRing // resident observations, in arrival order
	s   int64     // current nc - nd, exact
	idx concordanceIndex

	xTies *tieTracker
	yTies *tieTracker

	// rebuild scratch, reused
	rx, ry []float64
}

// NewNumericMonitor creates a numeric monitor; see NewCategoricalMonitor
// for the parameters.
func NewNumericMonitor(alpha float64, dependence bool, window int) (*NumericMonitor, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("stream: alpha %v out of [0,1]", alpha)
	}
	if window < 0 {
		return nil, fmt.Errorf("stream: negative window %d", window)
	}
	m := &NumericMonitor{
		alpha:      alpha,
		dependence: dependence,
		window:     window,
		xTies:      newTieTracker(),
		yTies:      newTieTracker(),
	}
	m.idx.limit = 64
	return m, nil
}

// Insert adds one observation, evicting the oldest when the window is
// full.
func (m *NumericMonitor) Insert(x, y float64) {
	if m.window > 0 && m.win.len() >= m.window {
		m.evictOldest()
	}
	m.s += m.idx.signedSum(x, y)
	m.idx.add(x, y)
	m.win.push(x, y)
	m.xTies.add(x)
	m.yTies.add(y)
	m.maybeRebuild()
}

// evictOldest removes the oldest observation. The signed sum is queried
// while the point is still resident: its self-term is zero, so the result
// is exactly its concordance against every other resident.
func (m *NumericMonitor) evictOldest() {
	x, y := m.win.popFront()
	m.s -= m.idx.signedSum(x, y)
	m.idx.drop(x, y)
	m.xTies.remove(x)
	m.yTies.remove(y)
	m.maybeRebuild()
}

func (m *NumericMonitor) maybeRebuild() {
	if m.idx.pending() <= m.idx.limit {
		return
	}
	m.rx, m.ry = m.win.appendTo(m.rx[:0], m.ry[:0])
	m.idx.rebuild(m.rx, m.ry)
}

// N returns the current observation count.
func (m *NumericMonitor) N() int { return m.win.len() }

// PairSum returns the current nc - nd.
func (m *NumericMonitor) PairSum() float64 { return float64(m.s) }

// TauB returns the current tie-corrected Kendall coefficient.
func (m *NumericMonitor) TauB() float64 {
	n := int64(m.win.len())
	n0 := n * (n - 1) / 2
	den := math.Sqrt(float64(n0-m.xTies.pairs) * float64(n0-m.yTies.pairs))
	if den <= 0 {
		return 0
	}
	t := float64(m.s) / den
	if t > 1 {
		t = 1
	} else if t < -1 {
		t = -1
	}
	return t
}

// Verdict evaluates the constraint on the current window using the
// tie-corrected normal approximation.
func (m *NumericMonitor) Verdict() Verdict {
	n := float64(m.win.len())
	v := Verdict{N: m.win.len()}
	if n < 2 {
		v.P = 1
		v.Violated = decide(v.P, m.alpha, m.dependence)
		return v
	}
	variance := (n*(n-1)*(2*n+5)-m.xTies.vT-m.yTies.vT)/18 +
		m.xTies.s1*m.yTies.s1/(2*n*(n-1))
	if n > 2 {
		variance += m.xTies.s2 * m.yTies.s2 / (9 * n * (n - 1) * (n - 2))
	}
	if variance <= 0 {
		v.P = 1
		v.Violated = decide(v.P, m.alpha, m.dependence)
		return v
	}
	v.Statistic = float64(m.s) / math.Sqrt(variance)
	v.P = stats.StdNormal.TwoSidedP(v.Statistic)
	v.Violated = decide(v.P, m.alpha, m.dependence)
	return v
}

// tieTracker maintains tie-group aggregates under add/remove:
// pairs = Σ t(t−1)/2, s1 = Σ t(t−1), s2 = Σ t(t−1)(t−2),
// vT = Σ t(t−1)(2t+5) — the terms of the Kendall variance formula. Every
// aggregate is a sum of integers, so the float64 fields are exact for any
// realistic window.
type tieTracker struct {
	count map[float64]int64
	pairs int64
	s1    float64
	s2    float64
	vT    float64
}

func newTieTracker() *tieTracker {
	return &tieTracker{count: make(map[float64]int64)}
}

func (t *tieTracker) add(v float64) {
	old := t.count[v]
	t.apply(old, -1)
	t.count[v] = old + 1
	t.apply(old+1, 1)
}

func (t *tieTracker) remove(v float64) {
	old := t.count[v]
	t.apply(old, -1)
	if old <= 1 {
		delete(t.count, v)
	} else {
		t.count[v] = old - 1
	}
	t.apply(old-1, 1)
}

// apply adds sign times the group-size terms for a group of size g.
func (t *tieTracker) apply(g int64, sign float64) {
	if g < 2 {
		return
	}
	fg := float64(g)
	t.pairs += int64(sign) * g * (g - 1) / 2
	t.s1 += sign * fg * (fg - 1)
	t.s2 += sign * fg * (fg - 1) * (fg - 2)
	t.vT += sign * fg * (fg - 1) * (2*fg + 5)
}

// ConditionalNumericMonitor stratifies a numeric monitor on a conditioning
// key, combining per-stratum Kendall z-scores with the weighted Stouffer
// rule, as the batch detector does for conditional numeric constraints.
type ConditionalNumericMonitor struct {
	alpha      float64
	dependence bool
	window     int
	minStratum int
	strata     map[string]*NumericMonitor
}

// NewConditionalNumericMonitor creates a per-stratum numeric monitor for
// X ⊥ Y | Z (or ⊥̸). window bounds each stratum independently; strata with
// fewer than minStratum records are excluded from the combined verdict
// (default 5 when zero).
func NewConditionalNumericMonitor(alpha float64, dependence bool, window, minStratum int) (*ConditionalNumericMonitor, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("stream: alpha %v out of [0,1]", alpha)
	}
	if minStratum <= 0 {
		minStratum = 5
	}
	return &ConditionalNumericMonitor{
		alpha:      alpha,
		dependence: dependence,
		window:     window,
		minStratum: minStratum,
		strata:     make(map[string]*NumericMonitor),
	}, nil
}

// Insert routes an observation to its stratum.
func (m *ConditionalNumericMonitor) Insert(z string, x, y float64) {
	sm, ok := m.strata[z]
	if !ok {
		sm, _ = NewNumericMonitor(m.alpha, m.dependence, m.window)
		m.strata[z] = sm
	}
	sm.Insert(x, y)
}

// Verdict combines the per-stratum z-scores by the sqrt(n)-weighted
// Stouffer rule over the eligible strata.
func (m *ConditionalNumericMonitor) Verdict() Verdict {
	var num, den float64
	n := 0
	eligible := 0
	for _, sm := range m.strata {
		n += sm.N()
		if sm.N() < m.minStratum {
			continue
		}
		sv := sm.Verdict()
		w := math.Sqrt(float64(sm.N()))
		num += w * sv.Statistic
		den += w * w
		eligible++
	}
	v := Verdict{N: n}
	if eligible == 0 || den <= 0 {
		v.P = 1
		v.Violated = decide(v.P, m.alpha, m.dependence)
		return v
	}
	v.Statistic = num / math.Sqrt(den)
	v.P = stats.StdNormal.TwoSidedP(v.Statistic)
	v.Violated = decide(v.P, m.alpha, m.dependence)
	return v
}

// ConditionalMonitor stratifies a categorical monitor on a conditioning
// key, combining per-stratum G statistics as in the batch detector.
type ConditionalMonitor struct {
	alpha      float64
	dependence bool
	window     int
	minStratum int
	strata     map[string]*CategoricalMonitor
}

// NewConditionalMonitor creates a per-stratum monitor for
// X ⊥ Y | Z (or ⊥̸). window bounds each stratum independently; strata with
// fewer than minStratum records are excluded from the combined verdict
// (default 5 when zero).
func NewConditionalMonitor(alpha float64, dependence bool, window, minStratum int) (*ConditionalMonitor, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("stream: alpha %v out of [0,1]", alpha)
	}
	if minStratum <= 0 {
		minStratum = 5
	}
	return &ConditionalMonitor{
		alpha:      alpha,
		dependence: dependence,
		window:     window,
		minStratum: minStratum,
		strata:     make(map[string]*CategoricalMonitor),
	}, nil
}

// Insert routes a record to its stratum.
func (m *ConditionalMonitor) Insert(z, x, y string) {
	sm, ok := m.strata[z]
	if !ok {
		sm, _ = NewCategoricalMonitor(m.alpha, m.dependence, m.window)
		m.strata[z] = sm
	}
	sm.Insert(x, y)
}

// Verdict combines the per-stratum G statistics (summed G and degrees of
// freedom, referred to the chi-squared with the summed df).
func (m *ConditionalMonitor) Verdict() Verdict {
	var g float64
	var df, n int
	for _, sm := range m.strata {
		n += sm.n
		if sm.n < m.minStratum {
			continue
		}
		sdf := (len(sm.rowMarg) - 1) * (len(sm.colMarg) - 1)
		if sdf <= 0 {
			continue
		}
		g += sm.G()
		df += sdf
	}
	v := Verdict{Statistic: g, DF: df, N: n}
	if df <= 0 {
		v.P = 1
	} else {
		v.P = stats.ChiSquared{K: float64(df)}.Survival(g)
	}
	v.Violated = decide(v.P, m.alpha, m.dependence)
	return v
}
