// Package repair implements the paper's Section 8 future-work extension:
// instead of only labelling whole records as dirty, search for the top-k
// *cell value corrections* that contribute the most to satisfying an SC.
//
// A correction rewrites a single cell (row, column) to a new value. For a
// dependence SC the corrections push the test statistic up (restoring the
// asserted dependence); for an independence SC they push it towards zero.
// Categorical (G-statistic) constraints use exact O(1) deltas of moving a
// record between contingency cells, applied greedily; numeric (tau)
// constraints use a batch heuristic that re-aligns each corrected value to
// the rank structure the constraint demands.
package repair

import (
	"fmt"
	"math"
	"sort"

	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
)

// Correction is one proposed cell rewrite.
type Correction struct {
	// Row is the record index in the input relation.
	Row int
	// Column is the rewritten column.
	Column string
	// Old and New are the cell values in string form.
	Old, New string
	// Gain is the statistic improvement attributed to this correction at
	// the time it was selected (G delta for categorical constraints,
	// contribution delta for numeric ones).
	Gain float64
}

// Options configures the repair search.
type Options struct {
	// Columns restricts which of the constraint's X/Y columns may be
	// rewritten; empty means both.
	Columns []string
	// Bins is the quantile bin count for numeric columns on the G path;
	// defaults to 4.
	Bins int
	// MinStratumSize skips conditioning strata smaller than this;
	// defaults to 5.
	MinStratumSize int
}

func (o Options) withDefaults() Options {
	if o.Bins <= 1 {
		o.Bins = 4
	}
	if o.MinStratumSize <= 0 {
		o.MinStratumSize = 5
	}
	return o
}

func (o Options) allows(col string) bool {
	if len(o.Columns) == 0 {
		return true
	}
	for _, c := range o.Columns {
		if c == col {
			return true
		}
	}
	return false
}

// Result is the outcome of a repair search.
type Result struct {
	// Corrections are the proposed rewrites in selection order.
	Corrections []Correction
	// InitialStat and FinalStat are the dependence statistic before and
	// after applying every correction (G for categorical constraints,
	// nc - nd for numeric ones).
	InitialStat, FinalStat float64
}

// TopKCells proposes the k cell corrections that move the constraint's
// statistic furthest in the satisfying direction. Only single-variable
// constraints are supported; decompose set constraints first.
func TopKCells(d *relation.Relation, c sc.SC, k int, opts Options) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if !c.IsSingle() {
		return Result{}, fmt.Errorf("repair: set-valued constraint %s; decompose first", c)
	}
	for _, col := range c.Columns() {
		if !d.HasColumn(col) {
			return Result{}, fmt.Errorf("repair: dataset lacks column %q required by %s", col, c)
		}
	}
	if k <= 0 {
		return Result{}, fmt.Errorf("repair: k=%d must be positive", k)
	}
	opts = opts.withDefaults()

	x := d.MustColumn(c.X[0])
	y := d.MustColumn(c.Y[0])
	if x.Kind == relation.Numeric && y.Kind == relation.Numeric {
		return tauRepair(d, c, k, opts)
	}
	return gRepair(d, c, k, opts)
}

// Apply returns a copy of the relation with the corrections written in.
func Apply(d *relation.Relation, corrections []Correction) (*relation.Relation, error) {
	out := d.Clone()
	for _, cor := range corrections {
		col, err := out.Column(cor.Column)
		if err != nil {
			return nil, err
		}
		if cor.Row < 0 || cor.Row >= out.NumRows() {
			return nil, fmt.Errorf("repair: correction row %d out of range", cor.Row)
		}
		if col.Kind == relation.Categorical {
			col.SetString(cor.Row, cor.New)
			continue
		}
		v, err := parseFloat(cor.New)
		if err != nil {
			return nil, fmt.Errorf("repair: correction for numeric column %q: %w", cor.Column, err)
		}
		col.SetValue(cor.Row, v)
	}
	return out, nil
}

func parseFloat(s string) (float64, error) {
	var v float64
	_, err := fmt.Sscanf(s, "%g", &v)
	return v, err
}

// strataFor mirrors the drill-down stratification.
func strataFor(d *relation.Relation, c sc.SC, opts Options) [][]int {
	if c.IsMarginal() {
		rows := make([]int, d.NumRows())
		for i := range rows {
			rows[i] = i
		}
		return [][]int{rows}
	}
	groups := d.GroupByFlat(c.Z)
	keys := relation.SortedGroupKeys(groups)
	var out [][]int
	for _, k := range keys {
		if len(groups[k]) >= opts.MinStratumSize {
			out = append(out, groups[k])
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Categorical path: greedy single-cell moves on the contingency table.

type gState struct {
	counts   [][]float64
	rowMarg  []float64
	colMarg  []float64
	n        float64
	cellRows [][][]int
	xLevels  []string // level name per X code
	yLevels  []string // level name per Y code
}

func gRepair(d *relation.Relation, c sc.SC, k int, opts Options) (Result, error) {
	xName, yName := c.X[0], c.Y[0]
	// Only categorical cells can be rewritten on this path (a numeric
	// column in a mixed pair is binned for the table but never rewritten),
	// further restricted by Options.Columns.
	xCat := d.MustColumn(xName).Kind == relation.Categorical && opts.allows(xName)
	yCat := d.MustColumn(yName).Kind == relation.Categorical && opts.allows(yName)
	if !xCat && !yCat {
		return Result{}, fmt.Errorf("repair: no rewritable categorical column among %q, %q", xName, yName)
	}
	var states []*gState
	for _, rows := range strataFor(d, c, opts) {
		st, err := newGState(d, c, rows)
		if err != nil {
			return Result{}, err
		}
		states = append(states, st)
	}
	if len(states) == 0 {
		return Result{}, fmt.Errorf("repair: no testable strata")
	}

	res := Result{InitialStat: sumStates(states)}
	for round := 0; round < k; round++ {
		best, ok := bestMove(states, c.Dependence, opts, xCat, yCat)
		if !ok {
			break
		}
		cor := applyMove(states[best.state], best, xName, yName)
		res.Corrections = append(res.Corrections, cor)
	}
	res.FinalStat = sumStates(states)
	return res, nil
}

// newGState builds the contingency state of one stratum. Only categorical
// columns are eligible for correction on this path, so numeric columns in a
// mixed pair are binned for the table but never rewritten.
func newGState(d *relation.Relation, c sc.SC, rows []int) (*gState, error) {
	xCodes, xLevels := codesAndLevels(d, c.X[0], rows)
	yCodes, yLevels := codesAndLevels(d, c.Y[0], rows)
	st := &gState{xLevels: xLevels, yLevels: yLevels}
	kx, ky := len(xLevels), len(yLevels)
	st.counts = make([][]float64, kx)
	st.cellRows = make([][][]int, kx)
	for i := 0; i < kx; i++ {
		st.counts[i] = make([]float64, ky)
		st.cellRows[i] = make([][]int, ky)
	}
	st.rowMarg = make([]float64, kx)
	st.colMarg = make([]float64, ky)
	for idx, r := range rows {
		i, j := xCodes[idx], yCodes[idx]
		st.counts[i][j]++
		st.rowMarg[i]++
		st.colMarg[j]++
		st.n++
		st.cellRows[i][j] = append(st.cellRows[i][j], r)
	}
	return st, nil
}

// codesAndLevels returns dense codes and the level display names of a
// column over a row subset; numeric columns use quantile-bin labels.
func codesAndLevels(d *relation.Relation, name string, rows []int) ([]int32, []string) {
	col := d.MustColumn(name)
	if col.Kind == relation.Categorical {
		remap := make(map[int]int32)
		var levels []string
		out := make([]int32, len(rows))
		for i, r := range rows {
			code := col.Code(r)
			dense, ok := remap[code]
			if !ok {
				dense = int32(len(remap))
				remap[code] = dense
				levels = append(levels, col.StringAt(r))
			}
			out[i] = dense
		}
		return out, levels
	}
	vals := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = col.Value(r)
	}
	codes, nBins := kernel.DiscretizeQuantile(vals, 4)
	levels := make([]string, nBins)
	for b := range levels {
		levels[b] = fmt.Sprintf("bin%d", b)
	}
	return codes, levels
}

func (st *gState) g() float64 {
	var s float64
	for i := range st.counts {
		for _, o := range st.counts[i] {
			s += xlnx(o)
		}
	}
	for _, r := range st.rowMarg {
		s -= xlnx(r)
	}
	for _, c := range st.colMarg {
		s -= xlnx(c)
	}
	s += xlnx(st.n)
	if g := 2 * s; g > 0 {
		return g
	}
	return 0
}

func xlnx(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x * math.Log(x)
}

func sumStates(states []*gState) float64 {
	var s float64
	for _, st := range states {
		s += st.g()
	}
	return s
}

// move is one candidate correction: record from cell (i, j) changes its X
// level to i2 (axis 0) or its Y level to j2 (axis 1).
type move struct {
	state  int
	i, j   int
	axis   int // 0: rewrite X, 1: rewrite Y
	target int
	delta  float64 // G change of the move
}

// moveDeltaX is the exact G change of moving one record from (i, j) to
// (i2, j): cells O_ij, O_i2j and row marginals R_i, R_i2 change; column
// marginals and N do not.
func (st *gState) moveDeltaX(i, j, i2 int) float64 {
	o, o2 := st.counts[i][j], st.counts[i2][j]
	r, r2 := st.rowMarg[i], st.rowMarg[i2]
	return 2 * ((xlnx(o-1) - xlnx(o)) + (xlnx(o2+1) - xlnx(o2)) -
		(xlnx(r-1) - xlnx(r)) - (xlnx(r2+1) - xlnx(r2)))
}

// moveDeltaY is the symmetric Y-rewrite delta.
func (st *gState) moveDeltaY(i, j, j2 int) float64 {
	o, o2 := st.counts[i][j], st.counts[i][j2]
	c, c2 := st.colMarg[j], st.colMarg[j2]
	return 2 * ((xlnx(o-1) - xlnx(o)) + (xlnx(o2+1) - xlnx(o2)) -
		(xlnx(c-1) - xlnx(c)) - (xlnx(c2+1) - xlnx(c2)))
}

// bestMove scans all candidate single-cell rewrites and returns the one
// with the largest improvement in the constraint's direction. ok is false
// when no move improves.
func bestMove(states []*gState, dependence bool, opts Options, xCat, yCat bool) (move, bool) {
	var best move
	found := false
	consider := func(m move) {
		impr := -m.delta // ISC: G should fall
		if dependence {
			impr = m.delta
		}
		if impr <= 1e-12 {
			return
		}
		bestImpr := -best.delta
		if dependence {
			bestImpr = best.delta
		}
		if !found || impr > bestImpr {
			best = m
			found = true
		}
	}
	for si, st := range states {
		for i := range st.counts {
			for j, o := range st.counts[i] {
				if o <= 0 {
					continue
				}
				if xCat {
					for i2 := range st.counts {
						if i2 != i {
							consider(move{state: si, i: i, j: j, axis: 0, target: i2,
								delta: st.moveDeltaX(i, j, i2)})
						}
					}
				}
				if yCat {
					for j2 := range st.counts[i] {
						if j2 != j {
							consider(move{state: si, i: i, j: j, axis: 1, target: j2,
								delta: st.moveDeltaY(i, j, j2)})
						}
					}
				}
			}
		}
	}
	return best, found
}

// applyMove mutates the state and emits the correction.
func applyMove(st *gState, m move, xName, yName string) Correction {
	rows := st.cellRows[m.i][m.j]
	row := rows[0]
	st.cellRows[m.i][m.j] = rows[1:]
	st.counts[m.i][m.j]--
	var cor Correction
	if m.axis == 0 {
		st.counts[m.target][m.j]++
		st.rowMarg[m.i]--
		st.rowMarg[m.target]++
		st.cellRows[m.target][m.j] = append(st.cellRows[m.target][m.j], row)
		cor = Correction{Row: row, Column: xName, Old: st.xLevels[m.i], New: st.xLevels[m.target]}
	} else {
		st.counts[m.i][m.target]++
		st.colMarg[m.j]--
		st.colMarg[m.target]++
		st.cellRows[m.i][m.target] = append(st.cellRows[m.i][m.target], row)
		cor = Correction{Row: row, Column: yName, Old: st.yLevels[m.j], New: st.yLevels[m.target]}
	}
	cor.Gain = math.Abs(m.delta)
	return cor
}

// ---------------------------------------------------------------------------
// Numeric path: batch rank re-alignment.

// tauRepair proposes corrections to the Y column of a numeric pair. For a
// dependence SC each candidate rewrites y_i to the Y value whose rank
// matches x_i's rank (maximal concordance while preserving the Y marginal);
// for an independence SC to the Y median (zeroing the record's pair
// contribution). Records are scored by the contribution change of their
// candidate, computed exactly, and the top-k are returned as a batch.
func tauRepair(d *relation.Relation, c sc.SC, k int, opts Options) (Result, error) {
	yName := c.Y[0]
	if !opts.allows(yName) {
		return Result{}, fmt.Errorf("repair: numeric path rewrites the Y column %q, which Options.Columns excludes", yName)
	}
	xc := d.MustColumn(c.X[0])
	yc := d.MustColumn(yName)

	type cand struct {
		row  int
		old  float64
		new  float64
		gain float64
	}
	var cands []cand
	var initial, final float64

	for _, rows := range strataFor(d, c, opts) {
		x := make([]float64, len(rows))
		y := make([]float64, len(rows))
		for i, r := range rows {
			x[i] = xc.Value(r)
			y[i] = yc.Value(r)
		}
		kr := stats.KendallNaive(x, y)
		s := float64(kr.Concordant - kr.Discordant)
		initial += s

		sortedY := append([]float64(nil), y...)
		sort.Float64s(sortedY)
		xRanks := stats.Ranks(x)

		for i := range rows {
			var target float64
			if c.Dependence {
				// Rank matching: the Y value at x's rank position.
				pos := int(xRanks[i]) - 1
				if pos < 0 {
					pos = 0
				}
				if pos >= len(sortedY) {
					pos = len(sortedY) - 1
				}
				target = sortedY[pos]
			} else {
				target = sortedY[len(sortedY)/2]
			}
			//scoded:lint-ignore floatcmp the repair target is a copied data value; equality means no-op edit
			if target == y[i] {
				continue
			}
			delta := contributionDelta(x, y, i, target)
			impr := delta // DSC: s should grow
			if !c.Dependence {
				impr = math.Abs(s) - math.Abs(s+delta)
			} else if s < 0 {
				impr = -delta
			}
			if impr > 1e-12 {
				cands = append(cands, cand{row: rows[i], old: y[i], new: target, gain: impr})
			}
		}
	}

	sort.SliceStable(cands, func(a, b int) bool { return cands[a].gain > cands[b].gain })
	if k > len(cands) {
		k = len(cands)
	}
	res := Result{InitialStat: initial}
	for _, cd := range cands[:k] {
		res.Corrections = append(res.Corrections, Correction{
			Row: cd.row, Column: yName,
			Old: fmt.Sprintf("%g", cd.old), New: fmt.Sprintf("%g", cd.new),
			Gain: cd.gain,
		})
	}
	// Evaluate the batch exactly on the repaired data.
	repaired, err := Apply(d, res.Corrections)
	if err != nil {
		return Result{}, err
	}
	ryc := repaired.MustColumn(yName)
	for _, rows := range strataFor(repaired, c, opts) {
		x := make([]float64, len(rows))
		y := make([]float64, len(rows))
		for i, r := range rows {
			x[i] = xc.Value(r)
			y[i] = ryc.Value(r)
		}
		kr := stats.KendallNaive(x, y)
		final += float64(kr.Concordant - kr.Discordant)
	}
	res.FinalStat = final
	return res, nil
}

// contributionDelta is the exact change in nc - nd from rewriting y[i] to
// target, all other records fixed: O(n).
func contributionDelta(x, y []float64, i int, target float64) float64 {
	var before, after float64
	for j := range y {
		if j == i {
			continue
		}
		before += pairWeight(x[i], y[i], x[j], y[j])
		after += pairWeight(x[i], target, x[j], y[j])
	}
	return after - before
}

func pairWeight(x1, y1, x2, y2 float64) float64 {
	dx, dy := x1-x2, y1-y2
	switch {
	//scoded:lint-ignore floatcmp Kendall ties are defined by exact value equality
	case dx == 0 || dy == 0:
		return 0
	case (dx > 0) == (dy > 0):
		return 1
	default:
		return -1
	}
}
