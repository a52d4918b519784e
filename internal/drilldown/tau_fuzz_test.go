package drilldown

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
)

// fuzzTauValue maps a byte onto a tiny tie-heavy grid (-4..3), with a few
// bytes reserved for the values a comparison-free kernel gets wrong: both
// infinities and negative zero.
func fuzzTauValue(b byte) float64 {
	switch b {
	case 0xff:
		return math.Inf(1)
	case 0xfe:
		return math.Inf(-1)
	case 0xfd:
		return math.Copysign(0, -1)
	}
	return float64(int8(b) >> 5)
}

// fuzzTauInput decodes a τ drill-down case: byte 0 picks the strategy (bit
// 0), the constraint direction (bit 1) and the stratum count 1–4 (bits
// 2–3); byte 1 picks k; every further (z, x, y) byte triple is one row.
func fuzzTauInput(data []byte) (d *relation.Relation, c sc.SC, k int, opts Options, ok bool) {
	if len(data) < 2+3*2 {
		return nil, sc.SC{}, 0, Options{}, false
	}
	flags, kb, body := data[0], data[1], data[2:]
	n := len(body) / 3
	if n > 48 {
		n = 48
	}
	strata := int(flags>>2&3) + 1
	z := make([]string, n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		z[i] = fmt.Sprintf("z%d", int(body[3*i])%strata)
		x[i] = fuzzTauValue(body[3*i+1])
		y[i] = fuzzTauValue(body[3*i+2])
	}
	d = relation.MustNew(
		relation.NewCategoricalColumn("Z", z),
		relation.NewNumericColumn("X", x),
		relation.NewNumericColumn("Y", y),
	)
	text := "X _||_ Y"
	if flags&2 != 0 {
		text = "X ~||~ Y"
	}
	if strata > 1 {
		text += " | Z"
	}
	opts = Options{Strategy: K, MinStratumSize: 2}
	if flags&1 != 0 {
		opts.Strategy = Kc
	}
	return d, sc.MustParse(text), int(kb)%n + 1, opts, true
}

// kendallSum is the independent oracle for the drill-down statistic: nc - nd
// from stats.Kendall, summed over the strata the drill-down tests (at least
// minSize rows; every row for a marginal constraint), counting only the rows
// keep admits. A stratum left with fewer than two rows contributes 0.
func kendallSum(t *testing.T, d *relation.Relation, c sc.SC, minSize int, keep func(row int) bool) int64 {
	t.Helper()
	x := d.MustColumn("X").Floats()
	y := d.MustColumn("Y").Floats()
	z := d.MustColumn("Z")
	groups := map[string][]int{}
	for i := range x {
		key := z.StringAt(i)
		if c.IsMarginal() {
			key = ""
		}
		groups[key] = append(groups[key], i)
	}
	var sum int64
	for _, rows := range groups {
		if !c.IsMarginal() && len(rows) < minSize {
			continue
		}
		var xs, ys []float64
		for _, r := range rows {
			if keep(r) {
				xs = append(xs, x[r])
				ys = append(ys, y[r])
			}
		}
		if len(xs) < 2 {
			continue
		}
		kr, err := stats.Kendall(xs, ys)
		if err != nil {
			t.Fatalf("oracle Kendall: %v", err)
		}
		sum += kr.Concordant - kr.Discordant
	}
	return sum
}

// FuzzTauDrill is the τ drill-down's differential fuzzer. On small numeric
// relations with heavy ties, ±0 and ±Inf, over 1–4 strata, both strategies
// and both constraint directions, it asserts that the integer delta greedy
// returns exactly the linear float oracle's result (rows, order and
// bit-identical statistics), and that both statistics agree with
// stats.Kendall: InitialStat is Σ_z (nc - nd) over the testable strata and
// FinalStat the same sum over the rows the greedy leaves behind.
func FuzzTauDrill(f *testing.F) {
	// Two records tied at +Inf on y: a subtracting pair weight leaves the
	// statistic at -1 after the K round, where Kendall counts 0.
	f.Add([]byte("070000\xff00000\xffA"))
	f.Add([]byte{0, 3, 0, 1, 2, 0, 0xff, 3, 0, 0xff, 4, 0, 2, 0xfe, 0, 0x40, 0x20})
	f.Add([]byte{1, 2, 0, 0xff, 0xff, 0, 0xff, 0xfe, 0, 0xfe, 0xff, 0, 0xfe, 0xfe, 0, 0xfd, 0})
	f.Add([]byte{0xf, 5, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0xff, 0xfd, 0, 0xfd, 0xff, 1, 0, 0, 2, 0x80, 0x60, 3, 0x60, 0x80})
	f.Add([]byte{0x6, 1, 0, 0xff, 1, 1, 0xff, 2, 0, 0xfe, 3, 1, 0xfe, 4, 0, 0, 0, 1, 0xfd, 0, 0, 0x20, 0x20, 1, 0x20, 0xff})
	f.Add([]byte{0xb, 9, 4, 7, 9, 1, 0x33, 0x99, 2, 0xaa, 0x10, 3, 0x70, 0x70, 0, 0xe0, 0xff, 1, 0xff, 0xe0,
		2, 0x40, 0x41, 3, 0xfd, 0xfd, 0, 0x12, 0xc4, 1, 0x7f, 0x80, 2, 0xfe, 0x01, 3, 0x00, 0xfe})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, c, k, opts, ok := fuzzTauInput(data)
		if !ok {
			return
		}
		fast, fastErr := TopK(d, c, k, opts)
		ref, refErr := TopKLinear(d, c, k, opts)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("%s k=%d %s: err %v vs %v", c, k, opts.Strategy, fastErr, refErr)
		}
		if fastErr != nil {
			if fastErr.Error() != refErr.Error() {
				t.Fatalf("%s: err %q vs %q", c, fastErr, refErr)
			}
			return
		}
		if !reflect.DeepEqual(fast.Rows, ref.Rows) || fast.Strategy != ref.Strategy ||
			math.Float64bits(fast.InitialStat) != math.Float64bits(ref.InitialStat) ||
			math.Float64bits(fast.FinalStat) != math.Float64bits(ref.FinalStat) {
			t.Fatalf("%s k=%d %s: delta %+v vs linear %+v", c, k, opts.Strategy, fast, ref)
		}

		all := func(int) bool { return true }
		if want := kendallSum(t, d, c, opts.MinStratumSize, all); fast.InitialStat != float64(want) {
			t.Fatalf("%s: InitialStat %v, stats.Kendall Σ(nc-nd) %d", c, fast.InitialStat, want)
		}
		chosen := make(map[int]bool, len(fast.Rows))
		for _, r := range fast.Rows {
			chosen[r] = true
		}
		left := func(r int) bool { return !chosen[r] } // K removes the chosen rows
		if fast.Strategy == Kc {
			left = func(r int) bool { return chosen[r] } // K^c keeps them
		}
		if want := kendallSum(t, d, c, opts.MinStratumSize, left); fast.FinalStat != float64(want) {
			t.Fatalf("%s %s: FinalStat %v, stats.Kendall Σ(nc-nd) over the rows left %d",
				c, fast.Strategy, fast.FinalStat, want)
		}
	})
}
