package stats

import (
	"math"
	"math/rand"
	"testing"
)

// splitSlices cuts parallel x/y slices at the given boundaries (the segment
// layout under test). Boundaries may create empty and 1-row windows.
func splitPairs(x, y []float64, cuts []int) (xs, ys [][]float64) {
	prev := 0
	for _, c := range cuts {
		xs = append(xs, x[prev:c])
		ys = append(ys, y[prev:c])
		prev = c
	}
	xs = append(xs, x[prev:])
	ys = append(ys, y[prev:])
	return xs, ys
}

// adversarialCuts enumerates split layouts the issue calls out: everything
// in one window, 1-row windows, empty windows at both ends and in the
// middle, and a few random cuts.
func adversarialCuts(n int, rng *rand.Rand) [][]int {
	cuts := [][]int{
		nil,            // single window
		{0},            // leading empty window
		{n},            // trailing empty window
		{0, 0, n, n},   // doubled empties
		{n / 2, n / 2}, // empty middle window
	}
	onerow := make([]int, 0, n)
	for i := 1; i < n; i++ {
		onerow = append(onerow, i) // every window holds exactly one row
	}
	cuts = append(cuts, onerow)
	for trial := 0; trial < 4; trial++ {
		k := rng.Intn(5) + 1
		c := make([]int, k)
		for i := range c {
			c[i] = rng.Intn(n + 1)
		}
		// cuts must be non-decreasing
		for i := 1; i < len(c); i++ {
			if c[i] < c[i-1] {
				c[i] = c[i-1]
			}
		}
		cuts = append(cuts, c)
	}
	return cuts
}

// kendallDatasets are the adversarial samples: ties everywhere, all-tied
// columns, signed zeros, tiny samples, and random data.
func kendallDatasets(rng *rand.Rand) map[string][2][]float64 {
	mk := func(n int, gen func(i int) (float64, float64)) [2][]float64 {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = gen(i)
		}
		return [2][]float64{x, y}
	}
	ds := map[string][2][]float64{
		"random": mk(200, func(i int) (float64, float64) {
			return rng.NormFloat64(), rng.NormFloat64()
		}),
		"heavy-ties": mk(150, func(i int) (float64, float64) {
			return float64(rng.Intn(4)), float64(rng.Intn(3))
		}),
		"all-ties": mk(80, func(i int) (float64, float64) {
			return 3.5, 3.5
		}),
		"constant-x": mk(64, func(i int) (float64, float64) {
			return 7, rng.NormFloat64()
		}),
		"signed-zero": mk(96, func(i int) (float64, float64) {
			vals := []float64{math.Copysign(0, -1), 0, 1, -1}
			return vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
		}),
		"infinities": mk(72, func(i int) (float64, float64) {
			vals := []float64{math.Inf(-1), -2, 0, 2, math.Inf(1)}
			return vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
		}),
		"monotone": mk(100, func(i int) (float64, float64) {
			return float64(i), float64(i) * 2
		}),
		"two-rows": mk(2, func(i int) (float64, float64) {
			return float64(i), float64(1 - i)
		}),
		"small": mk(7, func(i int) (float64, float64) {
			return float64(i % 3), float64(i % 2)
		}),
	}
	return ds
}

func kendallResultsEqual(t *testing.T, name string, got, want KendallResult) {
	t.Helper()
	// Bit-level comparison: the streamed partial must reproduce the exact
	// float bits of the single-shot computation, not just close values.
	if math.Float64bits(got.TauA) != math.Float64bits(want.TauA) ||
		math.Float64bits(got.TauB) != math.Float64bits(want.TauB) ||
		math.Float64bits(got.Z) != math.Float64bits(want.Z) ||
		math.Float64bits(got.P) != math.Float64bits(want.P) {
		t.Fatalf("%s: float fields differ: got %+v want %+v", name, got, want)
	}
	if got.Concordant != want.Concordant || got.Discordant != want.Discordant ||
		got.TiesX != want.TiesX || got.TiesY != want.TiesY || got.TiesXY != want.TiesXY ||
		got.N != want.N || got.Approximate != want.Approximate {
		t.Fatalf("%s: integer fields differ: got %+v want %+v", name, got, want)
	}
}

func TestKendallPartialMatchesSingleShot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, d := range kendallDatasets(rng) {
		x, y := d[0], d[1]
		want, err := Kendall(x, y)
		if err != nil {
			t.Fatalf("%s: single-shot Kendall: %v", name, err)
		}
		for ci, cuts := range adversarialCuts(len(x), rng) {
			xs, ys := splitPairs(x, y, cuts)

			// Sequential Append, one window per segment.
			p := NewKendallPartial()
			for i := range xs {
				p.Append(xs[i], ys[i])
			}
			got, err := p.Result()
			if err != nil {
				t.Fatalf("%s cuts %d: partial Result: %v", name, ci, err)
			}
			kendallResultsEqual(t, name, got, want)

			// Pairwise Merge of per-window partials, folded left to right.
			acc := NewKendallPartial()
			for i := range xs {
				q := NewKendallPartial()
				q.Append(xs[i], ys[i])
				acc.Merge(q)
			}
			got, err = acc.Result()
			if err != nil {
				t.Fatalf("%s cuts %d: merged Result: %v", name, ci, err)
			}
			kendallResultsEqual(t, name, got, want)
		}
	}
}

func TestKendallPartialTestMatchesKendallTest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 120)
	y := make([]float64, 120)
	for i := range x {
		x[i] = float64(rng.Intn(9))
		y[i] = rng.NormFloat64()
	}
	want, err := KendallTest(x, y)
	if err != nil {
		t.Fatal(err)
	}
	p := NewKendallPartial()
	for i := 0; i < len(x); i += 17 {
		end := i + 17
		if end > len(x) {
			end = len(x)
		}
		p.Append(x[i:end], y[i:end])
	}
	got, err := p.Test()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Statistic) != math.Float64bits(want.Statistic) ||
		math.Float64bits(got.P) != math.Float64bits(want.P) ||
		got.N != want.N || got.Approximate != want.Approximate {
		t.Fatalf("Test mismatch: got %+v want %+v", got, want)
	}
}

func TestKendallPartialErrors(t *testing.T) {
	// Minimum-size error, and its precedence over NaN: a single NaN row
	// must still report the size error, exactly like PrepKendall.
	for _, tc := range []struct {
		name string
		x, y []float64
	}{
		{"empty", nil, nil},
		{"one-row", []float64{1}, []float64{2}},
		{"one-nan-row", []float64{math.NaN()}, []float64{2}},
	} {
		p := NewKendallPartial()
		p.Append(tc.x, tc.y)
		_, gotErr := p.Result()
		_, wantErr := Kendall(tc.x, tc.y)
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: got %v want %v", tc.name, gotErr, wantErr)
		}
	}

	// NaN index is reported in concatenated row order regardless of which
	// window carried it, matching the single-shot scan.
	x := []float64{1, 2, 3, math.NaN(), 5, 6}
	y := []float64{6, 5, 4, 3, 2, math.NaN()}
	_, wantErr := Kendall(x, y)
	for _, cuts := range [][]int{nil, {3}, {4}, {1, 2, 3, 4, 5}} {
		xs, ys := splitPairs(x, y, cuts)
		p := NewKendallPartial()
		for i := range xs {
			p.Append(xs[i], ys[i])
		}
		if _, err := p.Result(); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("cuts %v: got %v want %v", cuts, err, wantErr)
		}
		// Merge path: NaN offsets shift by the receiver's row count.
		acc := NewKendallPartial()
		for i := range xs {
			q := NewKendallPartial()
			q.Append(xs[i], ys[i])
			acc.Merge(q)
		}
		if _, err := acc.Result(); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("cuts %v merged: got %v want %v", cuts, err, wantErr)
		}
	}
}

func TestTablePartialMatchesTableFromCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(300) + 2
		kx := rng.Intn(6) + 1
		ky := rng.Intn(5) + 1
		x := make([]int32, n)
		y := make([]int32, n)
		for i := range x {
			x[i] = int32(rng.Intn(kx))
			y[i] = int32(rng.Intn(ky))
		}
		// Dims as a dense coder would report them: max observed code + 1.
		var mx, my int32
		for i := range x {
			if x[i] > mx {
				mx = x[i]
			}
			if y[i] > my {
				my = y[i]
			}
		}
		want := TableFromCodes(x, y, int(mx)+1, int(my)+1)

		for _, cuts := range adversarialCuts(n, rng) {
			var parts []*TablePartial
			prev := 0
			// Windows alternate between one batch and one pair per call.
			observe := func(lo, hi int) {
				p := &TablePartial{}
				if len(parts)%2 == 0 {
					p.Observe(x[lo:hi], y[lo:hi])
				} else {
					for i := lo; i < hi; i++ {
						p.Observe(x[i:i+1], y[i:i+1])
					}
				}
				parts = append(parts, p)
			}
			for _, c := range cuts {
				observe(prev, c)
				prev = c
			}
			observe(prev, n)

			acc := &TablePartial{}
			for _, p := range parts {
				acc.Merge(p)
			}
			got := acc.Table()
			if len(got) != len(want) {
				t.Fatalf("trial %d cuts %v: kx %d want %d", trial, cuts, len(got), len(want))
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("trial %d: ky %d want %d", trial, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("trial %d: cell (%d,%d) = %v want %v", trial, i, j, got[i][j], want[i][j])
					}
				}
			}
			if acc.N() != int64(n) {
				t.Fatalf("trial %d: N %d want %d", trial, acc.N(), n)
			}

			// The merged table must drive GTest to bit-identical output.
			gotG, gotErr := GTest(got)
			wantG, wantErr := GTest(want)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("trial %d: GTest err %v want %v", trial, gotErr, wantErr)
			}
			if gotErr == nil {
				if math.Float64bits(gotG.Statistic) != math.Float64bits(wantG.Statistic) ||
					math.Float64bits(gotG.P) != math.Float64bits(wantG.P) {
					t.Fatalf("trial %d: GTest got %+v want %+v", trial, gotG, wantG)
				}
			}
		}
	}
}

func TestTablePartialGrowth(t *testing.T) {
	// Observations arriving in an order that forces both axes to regrow
	// repeatedly must land in the right cells.
	p := &TablePartial{}
	for _, c := range [][2]int32{{0, 0}, {5, 0}, {0, 7}, {5, 7}, {2, 3}} {
		p.Observe(c[:1], c[1:])
	}
	kx, ky := p.Dims()
	if kx != 6 || ky != 8 {
		t.Fatalf("dims (%d,%d) want (6,8)", kx, ky)
	}
	tab := p.Table()
	for _, cell := range [][2]int{{0, 0}, {5, 0}, {0, 7}, {5, 7}, {2, 3}} {
		if tab[cell[0]][cell[1]] != 1 {
			t.Fatalf("cell %v = %v want 1", cell, tab[cell[0]][cell[1]])
		}
	}
	if p.N() != 5 {
		t.Fatalf("N %d want 5", p.N())
	}
}
