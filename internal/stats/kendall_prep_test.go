package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestKendallPreppedIdentity asserts the prep-split Kendall path is
// bit-identical to the direct one, across tie-heavy and tie-free data.
// This is the stats-layer half of the kernel cache's correctness contract:
// a memoized KendallPrep must change nothing about the numbers.
func TestKendallPreppedIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(120)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			if trial%2 == 0 { // heavy ties
				x[i] = float64(rng.Intn(5))
				y[i] = float64(rng.Intn(4)) + x[i]*float64(rng.Intn(2))
			} else {
				x[i] = rng.NormFloat64()
				y[i] = 0.5*x[i] + rng.NormFloat64()
			}
		}
		direct, errD := Kendall(x, y)
		prep, errP := PrepKendall(x, y)
		if (errD == nil) != (errP == nil) {
			t.Fatalf("trial %d: error mismatch %v vs %v", trial, errD, errP)
		}
		if errD != nil {
			continue
		}
		prepped, err := KendallPrepped(x, y, prep)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, c := range []struct {
			name string
			d, p float64
		}{
			{"TauB", direct.TauB, prepped.TauB},
			{"TauA", direct.TauA, prepped.TauA},
			{"Z", direct.Z, prepped.Z},
			{"P", direct.P, prepped.P},
		} {
			if math.Float64bits(c.d) != math.Float64bits(c.p) {
				t.Errorf("trial %d: %s %v (direct) vs %v (prepped)", trial, c.name, c.d, c.p)
			}
		}

		// The test wrappers must agree too (Approximate flag included).
		dt, errD := KendallTest(x, y)
		pt, errP := KendallTestPrepped(x, y, prep)
		if (errD == nil) != (errP == nil) {
			t.Fatalf("trial %d: test error mismatch %v vs %v", trial, errD, errP)
		}
		//scoded:lint-ignore floatcmp bit-identity is the property under test
		if errD == nil && dt != pt {
			t.Errorf("trial %d: KendallTest %+v vs prepped %+v", trial, dt, pt)
		}
	}

	// A nil prep falls back to the direct path.
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 1, 4, 3}
	direct, _ := Kendall(x, y)
	viaNil, err := KendallPrepped(x, y, nil)
	if err != nil || math.Float64bits(direct.TauB) != math.Float64bits(viaNil.TauB) {
		t.Errorf("nil prep: %v / %+v vs %+v", err, viaNil, direct)
	}

	// A prep for the wrong length is rejected.
	prep, _ := PrepKendall(x, y)
	if _, err := KendallPrepped(x[:3], y[:3], prep); err == nil {
		t.Error("expected a length-mismatch error")
	}
}

// TestPrepKendallCountsMatchNaive pins the prep's integer counts — the
// whole of what the kernel cache keeps per stratum — to the O(n²)
// definition, and its tie groups to the copy-and-sort form the z-score
// consumes, on the inputs where a joint sort is easiest to get wrong.
func TestPrepKendallCountsMatchNaive(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(17))
	tieHeavy := func(n int) (x, y []float64) {
		x, y = make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = float64(rng.Intn(4))
			y[i] = float64(rng.Intn(3)) + x[i]
		}
		return x, y
	}
	tx, ty := tieHeavy(200)
	for _, tc := range []struct {
		name string
		x, y []float64
	}{
		{"tie-heavy", tx, ty},
		{"signed-zeros", []float64{0, negZero, 1, negZero, 0, -1}, []float64{negZero, 0, 0, 2, negZero, 0}},
		{"constant-x", []float64{3, 3, 3, 3, 3}, []float64{5, 1, 4, 1, 2}},
		{"constant-y", []float64{5, 1, 4, 1, 2}, []float64{7, 7, 7, 7, 7}},
		{"n=2", []float64{1, 2}, []float64{2, 1}},
		{"n=2-tied", []float64{1, 1}, []float64{2, 2}},
		{"reversed", []float64{1, 2, 3, 4, 5, 6, 7}, []float64{7, 6, 5, 4, 3, 2, 1}},
		{"inf-ties", []float64{1, math.Inf(1), math.Inf(1), 2}, []float64{1, 2, 3, 0}},
		{"inf-both", []float64{math.Inf(-1), math.Inf(1), math.Inf(-1), math.Inf(1), 0},
			[]float64{math.Inf(1), math.Inf(1), math.Inf(-1), 5, math.Inf(-1)}},
		{"tiny-differences", []float64{0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64},
			[]float64{0, math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64}},
	} {
		prep, err := PrepKendall(tc.x, tc.y)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		naive := KendallNaive(tc.x, tc.y)
		if prep.N != len(tc.x) || prep.Discordant != naive.Discordant ||
			prep.TiesX != naive.TiesX || prep.TiesXY != naive.TiesXY ||
			tiedPairs(prep.YTies) != naive.TiesY {
			t.Errorf("%s: prep %+v (TiesY %d), naive %+v", tc.name, prep, tiedPairs(prep.YTies), naive)
		}
		if !reflect.DeepEqual(prep.XTies, tieGroupSizes(tc.x)) || !reflect.DeepEqual(prep.YTies, tieGroupSizes(tc.y)) {
			t.Errorf("%s: tie groups %v/%v, want %v/%v", tc.name,
				prep.XTies, prep.YTies, tieGroupSizes(tc.x), tieGroupSizes(tc.y))
		}
	}
}

// fuzzKendallValue maps a byte onto a small tie-prone grid, with a few
// bytes reserved for the values a sort comparator mishandles most easily.
func fuzzKendallValue(b byte) float64 {
	switch b {
	case 0xff:
		return math.Inf(1)
	case 0xfe:
		return math.Inf(-1)
	case 0xfd:
		return math.Copysign(0, -1)
	case 0xfc:
		return math.MaxFloat64
	case 0xfb:
		return math.SmallestNonzeroFloat64
	}
	return float64(int8(b) >> 3)
}

// FuzzKendallPrep asserts that for any NaN-free sample of at least two
// rows, the direct Kendall, the prepped path and a KendallPartial fed the
// rows in randomly split windows — half appended to one partial, half to a
// second that is then merged in — agree bit for bit.
func FuzzKendallPrep(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, int64(1))
	f.Add([]byte{0xfd, 0, 0, 0xfd, 0x80, 0x80, 0xff, 0xfe}, int64(2))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9}, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		n := len(data) / 2
		if n < 2 {
			return
		}
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], y[i] = fuzzKendallValue(data[2*i]), fuzzKendallValue(data[2*i+1])
		}
		want, err := Kendall(x, y)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := PrepKendall(x, y)
		if err != nil {
			t.Fatal(err)
		}
		got, err := KendallPrepped(x, y, prep)
		if err != nil {
			t.Fatal(err)
		}
		kendallResultsEqual(t, "prepped", got, want)

		rng := rand.New(rand.NewSource(seed))
		left, right := NewKendallPartial(), NewKendallPartial()
		for lo := 0; lo < n; {
			hi := lo + 1 + rng.Intn(n-lo)
			if lo < n/2 {
				left.Append(x[lo:hi], y[lo:hi])
			} else {
				right.Append(x[lo:hi], y[lo:hi])
			}
			lo = hi
		}
		left.Merge(right)
		got, err = left.Result()
		if err != nil {
			t.Fatal(err)
		}
		kendallResultsEqual(t, "partial", got, want)
	})
}

// kendallBenchSample is one stratum of the service benchmark's tau family:
// n ≈ 1,667 continuous, weakly dependent pairs.
func kendallBenchSample() (x, y []float64) {
	rng := rand.New(rand.NewSource(1))
	x, y = make([]float64, 1667), make([]float64, 1667)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 0.3*x[i] + rng.NormFloat64()
	}
	return x, y
}

// BenchmarkPrepKendall is the cold cost of one stratum's prep: what a
// kernel cache miss pays.
func BenchmarkPrepKendall(b *testing.B) {
	x, y := kendallBenchSample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PrepKendall(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKendallTestPrepped is the warm cost of one stratum's tau test
// on a cached prep: what every checkall after the first pays.
func BenchmarkKendallTestPrepped(b *testing.B) {
	x, y := kendallBenchSample()
	prep, err := PrepKendall(x, y)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := KendallTestPrepped(x, y, prep); err != nil {
			b.Fatal(err)
		}
	}
}
