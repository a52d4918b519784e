package detect

import (
	"math/rand"
	"testing"

	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
)

// figure2Relation is the updated car database of Figure 2: the original 8
// records plus the inserted r9-r16, after which Model and Color are
// correlated.
func figure2Relation() *relation.Relation {
	models := []string{
		"BMW X1", "BMW X1", "BMW X1", "BMW X1",
		"Toyota Prius", "Toyota Prius", "Toyota Prius", "Toyota Prius",
		"BMW X1", "BMW X1", "BMW X1", "BMW X1",
		"Toyota Prius", "Toyota Prius", "Toyota Prius", "Toyota Prius",
	}
	colors := []string{
		"White", "Black", "White", "Black",
		"White", "White", "White", "Black",
		"White", "White", "White", "Black",
		"Black", "Black", "Black", "Black",
	}
	return relation.MustNew(
		relation.NewCategoricalColumn("Model", models),
		relation.NewCategoricalColumn("Color", colors),
	)
}

// independentCategorical builds a large sample from an exactly independent
// joint.
func independentCategorical(n int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	a := make([]string, n)
	b := make([]string, n)
	la := []string{"a1", "a2", "a3"}
	lb := []string{"b1", "b2"}
	for i := 0; i < n; i++ {
		a[i] = la[rng.Intn(3)]
		b[i] = lb[rng.Intn(2)]
	}
	return relation.MustNew(
		relation.NewCategoricalColumn("A", a),
		relation.NewCategoricalColumn("B", b),
	)
}

func TestCheckISCOnIndependentData(t *testing.T) {
	d := independentCategorical(2000, 5)
	res, err := Check(d, sc.Approximate{SC: sc.MustParse("A _||_ B"), Alpha: 0.05}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Errorf("independent data flagged as violating ISC (p=%v)", res.Test.P)
	}
	if res.Method != G {
		t.Errorf("method = %v, want G", res.Method)
	}
}

func TestCheckISCDetectsInjectedDependence(t *testing.T) {
	// The Figure 2 scenario: after inserting r9-r16, Model and Color skew
	// towards (BMW, White) and (Prius, Black). With only 16 rows the skew
	// is illustrative, not significant; the test statistic must still move
	// in the right direction, and the violation becomes significant once
	// the same insertion pattern accumulates (replicated x8 here).
	d := figure2Relation()
	res, err := Check(d, sc.Approximate{SC: sc.MustParse("Model _||_ Color"), Alpha: 0.05}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Test.Statistic <= 0 {
		t.Errorf("G = %v, want positive", res.Test.Statistic)
	}
	if !res.Test.Approximate {
		t.Error("n=16 with small expected counts should be flagged approximate")
	}

	// Replicate the pattern: 8 copies of the same 16 rows.
	var rows []int
	for rep := 0; rep < 8; rep++ {
		for i := 0; i < d.NumRows(); i++ {
			rows = append(rows, i)
		}
	}
	big := d.Subset(rows)
	res, err = Check(big, sc.Approximate{SC: sc.MustParse("Model _||_ Color"), Alpha: 0.05}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Errorf("replicated Figure 2 violation not detected (p=%v)", res.Test.P)
	}
}

func TestCheckDSCOnDependentData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 500
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = x[i] + 0.3*rng.NormFloat64()
	}
	d := relation.MustNew(
		relation.NewNumericColumn("X", x),
		relation.NewNumericColumn("Y", y),
	)
	res, err := Check(d, sc.Approximate{SC: sc.MustParse("X ~||~ Y"), Alpha: 0.05}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Errorf("strong dependence should satisfy the DSC (p=%v)", res.Test.P)
	}
	if res.Method != Kendall {
		t.Errorf("method = %v, want Kendall", res.Method)
	}
}

func TestCheckDSCViolatedByIndependentData(t *testing.T) {
	// Under true independence the p-value is uniform, so a DSC with
	// alpha=0.3 is violated (p >= 0.3) on ~70% of samples. Check the rate
	// over many independent draws rather than one flaky draw.
	rng := rand.New(rand.NewSource(7))
	trials, violated := 60, 0
	for trial := 0; trial < trials; trial++ {
		n := 300
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		d := relation.MustNew(
			relation.NewNumericColumn("X", x),
			relation.NewNumericColumn("Y", y),
		)
		res, err := Check(d, sc.Approximate{SC: sc.MustParse("X ~||~ Y"), Alpha: 0.3}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violated {
			violated++
		}
	}
	rate := float64(violated) / float64(trials)
	if rate < 0.5 || rate > 0.9 {
		t.Errorf("DSC violation rate under independence = %v, want ~0.7", rate)
	}
}

func TestCheckConditionalISC(t *testing.T) {
	// Y depends on X only through Z: X ⊥ Y | Z holds, X ⊥ Y does not.
	rng := rand.New(rand.NewSource(8))
	n := 3000
	zs := make([]string, n)
	xs := make([]string, n)
	ys := make([]string, n)
	for i := 0; i < n; i++ {
		z := rng.Intn(2)
		zs[i] = []string{"z0", "z1"}[z]
		// X and Y each follow Z with probability 0.85, independently.
		flip := func() string {
			v := z
			if rng.Float64() > 0.85 {
				v = 1 - z
			}
			return []string{"v0", "v1"}[v]
		}
		xs[i] = flip()
		ys[i] = flip()
	}
	d := relation.MustNew(
		relation.NewCategoricalColumn("Z", zs),
		relation.NewCategoricalColumn("X", xs),
		relation.NewCategoricalColumn("Y", ys),
	)
	marg, err := Check(d, sc.Approximate{SC: sc.MustParse("X _||_ Y"), Alpha: 0.05}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !marg.Violated {
		t.Errorf("marginal X ⊥ Y should be violated (p=%v)", marg.Test.P)
	}
	cond, err := Check(d, sc.Approximate{SC: sc.MustParse("X _||_ Y | Z"), Alpha: 0.05}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cond.Violated {
		t.Errorf("conditional X ⊥ Y | Z should hold (p=%v)", cond.Test.P)
	}
	if len(cond.Strata) != 2 {
		t.Errorf("strata = %d, want 2", len(cond.Strata))
	}
	for _, s := range cond.Strata {
		if s.Skipped {
			t.Errorf("stratum %s skipped unexpectedly", s.Key)
		}
	}
}

func TestCheckConditionalNumericStouffer(t *testing.T) {
	// Within each stratum X and Y are dependent; the combined conditional
	// DSC should be satisfied.
	rng := rand.New(rand.NewSource(9))
	n := 600
	zs := make([]string, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		zs[i] = []string{"g0", "g1", "g2"}[rng.Intn(3)]
		xs[i] = rng.NormFloat64()
		ys[i] = xs[i] + rng.NormFloat64()
	}
	d := relation.MustNew(
		relation.NewCategoricalColumn("Year", zs),
		relation.NewNumericColumn("Wind", xs),
		relation.NewNumericColumn("Weather", ys),
	)
	res, err := Check(d, sc.Approximate{SC: sc.MustParse("Wind ~||~ Weather | Year"), Alpha: 0.3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Errorf("dependence present in every stratum; DSC should hold (p=%v)", res.Test.P)
	}
	if res.Method != Kendall {
		t.Errorf("method = %v", res.Method)
	}
}

func TestCheckSmallStrataSkipped(t *testing.T) {
	d := relation.MustNew(
		relation.NewCategoricalColumn("Z", []string{"a", "a", "a", "a", "a", "a", "b"}),
		relation.NewCategoricalColumn("X", []string{"0", "1", "0", "1", "0", "1", "0"}),
		relation.NewCategoricalColumn("Y", []string{"0", "1", "0", "1", "0", "1", "0"}),
	)
	res, err := Check(d, sc.Approximate{SC: sc.MustParse("X _||_ Y | Z"), Alpha: 0.05},
		Options{MinStratumSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, s := range res.Strata {
		if s.Skipped {
			skipped++
		}
	}
	if skipped != 1 {
		t.Errorf("skipped strata = %d, want 1 (the singleton b)", skipped)
	}
}

func TestCheckAllStrataTooSmall(t *testing.T) {
	d := relation.MustNew(
		relation.NewCategoricalColumn("Z", []string{"a", "b", "c"}),
		relation.NewCategoricalColumn("X", []string{"0", "1", "0"}),
		relation.NewCategoricalColumn("Y", []string{"0", "1", "0"}),
	)
	res, err := Check(d, sc.Approximate{SC: sc.MustParse("X _||_ Y | Z"), Alpha: 0.05}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated || res.Test.P != 1 {
		t.Errorf("no testable stratum: violated=%v p=%v", res.Violated, res.Test.P)
	}
}

func TestCheckDecomposedSetISC(t *testing.T) {
	// X ⊥ {Y1, Y2}: plant a dependence between X and Y2 only.
	rng := rand.New(rand.NewSource(10))
	n := 1500
	xs := make([]string, n)
	y1 := make([]string, n)
	y2 := make([]string, n)
	for i := 0; i < n; i++ {
		x := rng.Intn(2)
		xs[i] = []string{"x0", "x1"}[x]
		y1[i] = []string{"a", "b"}[rng.Intn(2)]
		v := x
		if rng.Float64() > 0.8 {
			v = 1 - x
		}
		y2[i] = []string{"a", "b"}[v]
	}
	d := relation.MustNew(
		relation.NewCategoricalColumn("X", xs),
		relation.NewCategoricalColumn("Y1", y1),
		relation.NewCategoricalColumn("Y2", y2),
	)
	res, err := Check(d, sc.Approximate{SC: sc.MustParse("X _||_ Y1,Y2"), Alpha: 0.01}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Errorf("set ISC should be violated via the Y2 leaf (p=%v)", res.Test.P)
	}
	if len(res.Leaves) != 2 {
		t.Fatalf("leaves = %d", len(res.Leaves))
	}
}

func TestCheckMixedPairDiscretizes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 1000
	num := make([]float64, n)
	cat := make([]string, n)
	for i := 0; i < n; i++ {
		num[i] = rng.NormFloat64()
		if num[i] > 0 {
			cat[i] = "pos"
		} else {
			cat[i] = "neg"
		}
		if rng.Float64() < 0.1 { // noise
			cat[i] = []string{"pos", "neg"}[rng.Intn(2)]
		}
	}
	d := relation.MustNew(
		relation.NewNumericColumn("V", num),
		relation.NewCategoricalColumn("L", cat),
	)
	res, err := Check(d, sc.Approximate{SC: sc.MustParse("V _||_ L"), Alpha: 0.05}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != G {
		t.Errorf("mixed pair should auto-select G, got %v", res.Method)
	}
	if !res.Violated {
		t.Errorf("mixed dependence missed (p=%v)", res.Test.P)
	}
}

func TestCheckExactMethods(t *testing.T) {
	d := figure2Relation()
	res, err := Check(d, sc.Approximate{SC: sc.MustParse("Model _||_ Color"), Alpha: 0.10},
		Options{Method: ExactG, PermIters: 499, Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Test.P <= 0 || res.Test.P > 1 {
		t.Errorf("exact p = %v", res.Test.P)
	}

	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	y := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	dn := relation.MustNew(
		relation.NewNumericColumn("X", x),
		relation.NewNumericColumn("Y", y),
	)
	res, err = Check(dn, sc.Approximate{SC: sc.MustParse("X _||_ Y"), Alpha: 0.05},
		Options{Method: ExactKendall, PermIters: 499, Rng: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Errorf("perfect dependence should violate the ISC under the exact test (p=%v)", res.Test.P)
	}
}

func TestCheckAutoExactFallback(t *testing.T) {
	// A small sample flagged Approximate by the closed-form G-test should
	// be recomputed by the permutation test when AutoExact is set: the
	// Monte-Carlo p is granular (multiples of 1/(iters+1)) and bounded
	// below by 1/(iters+1).
	d := figure2Relation()
	a := sc.Approximate{SC: sc.MustParse("Model _||_ Color"), Alpha: 0.05}
	plain, err := Check(d, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Test.Approximate {
		t.Fatal("n=16 should be flagged approximate")
	}
	exact, err := Check(d, a, Options{AutoExact: true, PermIters: 199, Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	// The exact p is a multiple of 1/200.
	scaled := exact.Test.P * 200
	if diff := scaled - float64(int(scaled+0.5)); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("exact p=%v is not on the Monte-Carlo grid", exact.Test.P)
	}
	// A large sample is not in the fallback regime, so AutoExact is a
	// no-op there.
	big := independentCategorical(2000, 6)
	ref, err := Check(big, sc.Approximate{SC: sc.MustParse("A _||_ B"), Alpha: 0.05}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Check(big, sc.Approximate{SC: sc.MustParse("A _||_ B"), Alpha: 0.05}, Options{AutoExact: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Test.P != auto.Test.P {
		t.Errorf("AutoExact changed a non-approximate result: %v vs %v", ref.Test.P, auto.Test.P)
	}
}

func TestCheckErrors(t *testing.T) {
	d := figure2Relation()
	if _, err := Check(d, sc.Approximate{SC: sc.MustParse("Model _||_ Missing"), Alpha: 0.05}, Options{}); err == nil {
		t.Error("want error for missing column")
	}
	if _, err := Check(d, sc.Approximate{SC: sc.MustParse("Model _||_ Color"), Alpha: 2}, Options{}); err == nil {
		t.Error("want error for bad alpha")
	}
	// Kendall on categorical columns must be rejected.
	if _, err := Check(d, sc.Approximate{SC: sc.MustParse("Model _||_ Color"), Alpha: 0.05},
		Options{Method: Kendall}); err == nil {
		t.Error("want error for Kendall on categorical data")
	}
}

func TestMethodString(t *testing.T) {
	names := map[Method]string{
		Auto: "auto", G: "g-test", Kendall: "kendall", Pearson: "pearson",
		Spearman: "spearman", ExactG: "exact-g", ExactKendall: "exact-kendall",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if Method(99).String() == "" {
		t.Error("unknown method should still render")
	}
}

// TestDiscretizeQuantile pins the binner detection codes numeric columns
// through (kernel.DiscretizeQuantile).
func TestDiscretizeQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	codes, k := kernel.DiscretizeQuantile(vals, 4)
	if k != 4 {
		t.Fatalf("bins = %d, want 4", k)
	}
	// Equal values must share a bin.
	tied := []float64{1, 1, 1, 1, 1, 2}
	codes, k = kernel.DiscretizeQuantile(tied, 4)
	first := codes[0]
	for i := 1; i < 5; i++ {
		if codes[i] != first {
			t.Errorf("equal values split across bins: %v", codes)
		}
	}
	if k < 1 || k > 4 {
		t.Errorf("k = %d", k)
	}
	if c, k := kernel.DiscretizeQuantile(nil, 4); c != nil || k != 0 {
		t.Error("empty input should return empty")
	}
	// Constant column collapses to one bin.
	_, k = kernel.DiscretizeQuantile([]float64{5, 5, 5, 5}, 3)
	if k != 1 {
		t.Errorf("constant column bins = %d, want 1", k)
	}
}

func TestDiscretizeQuantileBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	codes, k := kernel.DiscretizeQuantile(vals, 4)
	if k != 4 {
		t.Fatalf("bins = %d", k)
	}
	counts := make([]int, k)
	for _, c := range codes {
		counts[c]++
	}
	for b, n := range counts {
		if n < 200 || n > 300 {
			t.Errorf("bin %d count = %d, want ~250", b, n)
		}
	}
}
