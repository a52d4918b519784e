package relation

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// GroupBy is the string-keyed reference partition: one RowKey build and
// one map append per row. GroupByFlat must reproduce its map exactly.
func (r *Relation) GroupBy(names []string) map[string][]int {
	out := make(map[string][]int)
	for i := 0; i < r.NumRows(); i++ {
		k := r.RowKey(i, names)
		out[k] = append(out[k], i)
	}
	return out
}

// assertFlatMatchesGroupBy drills the equivalence contract: GroupByFlat
// must return the identical map — same key strings, same member rows, same
// row order — as the string-keyed reference.
func assertFlatMatchesGroupBy(t *testing.T, r *Relation, names []string) {
	t.Helper()
	want := r.GroupBy(names)
	got := r.GroupByFlat(names)
	if len(got) != len(want) {
		t.Fatalf("GroupByFlat(%v): %d groups, GroupBy: %d", names, len(got), len(want))
	}
	for key, rows := range want {
		frows, present := got[key]
		if !present {
			t.Fatalf("GroupByFlat(%v): missing key %q", names, key)
		}
		if !reflect.DeepEqual(frows, rows) {
			t.Fatalf("GroupByFlat(%v) key %q: rows %v, want %v", names, key, frows, rows)
		}
	}
}

func TestGroupByFlatMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		cat := make([]string, n)
		catWide := make([]string, n)
		num := make([]float64, n)
		for i := 0; i < n; i++ {
			cat[i] = fmt.Sprintf("c%d", rng.Intn(1+rng.Intn(6)))
			catWide[i] = fmt.Sprintf("w%d", rng.Intn(50))
			// Quantized floats so duplicates occur; occasional negatives and
			// integer-valued floats exercise both formatFloat branches.
			num[i] = math.Floor(rng.NormFloat64()*4) / 2
		}
		r, err := New(
			NewCategoricalColumn("C", cat),
			NewCategoricalColumn("W", catWide),
			NewNumericColumn("F", num),
		)
		if err != nil {
			t.Fatal(err)
		}
		for _, names := range [][]string{
			{"C"}, {"F"}, {"C", "F"}, {"F", "C"}, {"C", "W", "F"}, {"W", "W"},
		} {
			assertFlatMatchesGroupBy(t, r, names)
		}
	}
}

func TestGroupByFlatAdversarial(t *testing.T) {
	t.Run("single stratum / all ties", func(t *testing.T) {
		n := 64
		same := make([]string, n)
		ties := make([]float64, n)
		for i := range same {
			same[i] = "only"
			ties[i] = 1.5
		}
		r, err := New(NewCategoricalColumn("C", same), NewNumericColumn("F", ties))
		if err != nil {
			t.Fatal(err)
		}
		assertFlatMatchesGroupBy(t, r, []string{"C"})
		assertFlatMatchesGroupBy(t, r, []string{"C", "F"})
	})

	t.Run("NaN and signed zero", func(t *testing.T) {
		nan := math.NaN()
		vals := []float64{1, nan, math.Copysign(0, -1), 0, nan, 1, nan}
		labels := []string{"a", "b", "a", "b", "a", "a", "b"}
		r, err := New(NewNumericColumn("F", vals), NewCategoricalColumn("C", labels))
		if err != nil {
			t.Fatal(err)
		}
		// All NaNs must land in ONE group (formatFloat renders each as
		// "NaN"), and -0/+0 must share a group (they compare equal and both
		// render "0").
		groups := r.GroupByFlat([]string{"F"})
		if got := groups["NaN"]; !reflect.DeepEqual(got, []int{1, 4, 6}) {
			t.Fatalf("NaN group = %v, want [1 4 6]", got)
		}
		if got := groups["0"]; !reflect.DeepEqual(got, []int{2, 3}) {
			t.Fatalf("zero group = %v, want [2 3]", got)
		}
		assertFlatMatchesGroupBy(t, r, []string{"F"})
		assertFlatMatchesGroupBy(t, r, []string{"F", "C"})
	})

	t.Run("empty relation", func(t *testing.T) {
		r, err := New(NewCategoricalColumn("C", nil), NewNumericColumn("F", nil))
		if err != nil {
			t.Fatal(err)
		}
		if groups := r.GroupByFlat([]string{"C", "F"}); len(groups) != 0 {
			t.Fatalf("empty relation: got %v, want an empty map", groups)
		}
	})

	t.Run("single row", func(t *testing.T) {
		r, err := New(NewCategoricalColumn("C", []string{"x"}), NewNumericColumn("F", []float64{-3.25}))
		if err != nil {
			t.Fatal(err)
		}
		assertFlatMatchesGroupBy(t, r, []string{"C", "F"})
	})

	t.Run("every row distinct", func(t *testing.T) {
		n := 100
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i) + 0.5
		}
		r, err := New(NewNumericColumn("F", vals))
		if err != nil {
			t.Fatal(err)
		}
		assertFlatMatchesGroupBy(t, r, []string{"F"})
	})
}

// TestGroupByFlatOverflowComposite covers the edges of the composite
// encoding: an empty column list, a composite space past maxFlatRadix
// (re-densified mid-fold), and values holding the RowKey separator, whose
// distinct code vectors render one key.
func TestGroupByFlatOverflowComposite(t *testing.T) {
	r, err := New(NewCategoricalColumn("C", []string{"a", "b", "a"}))
	if err != nil {
		t.Fatal(err)
	}
	assertFlatMatchesGroupBy(t, r, nil)

	// Many high-cardinality numeric columns multiply past 2^31, and the
	// eight all-distinct ones past 2^64; the partial composite is
	// re-densified before each overflowing column.
	n := 300
	cols := make([]*Column, 0, 8)
	for c := 0; c < 8; c++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i%(50+c)) + float64(c)/8
			if c >= 6 {
				vals[i] = float64(i) + float64(c)/8
			}
		}
		cols = append(cols, NewNumericColumn(fmt.Sprintf("F%d", c), vals))
	}
	wide, err := New(cols...)
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{
		{"F0", "F1", "F2", "F3", "F4", "F5"},
		{"F5", "F4", "F3", "F2", "F1", "F0", "F1"},
		{"F6", "F7", "F6", "F7", "F6", "F7", "F6", "F7"},
	} {
		assertFlatMatchesGroupBy(t, wide, names)
	}

	sep, err := New(
		NewCategoricalColumn("A", []string{"a\x1fb", "a", "a", "a\x1fb"}),
		NewCategoricalColumn("B", []string{"c", "b\x1fc", "c", "c"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	assertFlatMatchesGroupBy(t, sep, []string{"A", "B"})
}

// TestGroupByFlatLargeSparseRemap pushes the composite space past the dense
// remap cutoff so the map-based gid remap path is exercised too.
func TestGroupByFlatLargeSparseRemap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 500
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = float64(rng.Intn(400))
		b[i] = float64(rng.Intn(400))
	}
	r, err := New(NewNumericColumn("A", a), NewNumericColumn("B", b))
	if err != nil {
		t.Fatal(err)
	}
	// Cardinalities are data-dependent but ~400 each: the composite space is
	// ~160k < 2^20, so force the sparse path with a third column.
	c := make([]float64, n)
	for i := range c {
		c[i] = float64(rng.Intn(100))
	}
	r2, err := New(NewNumericColumn("A", a), NewNumericColumn("B", b), NewNumericColumn("C", c))
	if err != nil {
		t.Fatal(err)
	}
	assertFlatMatchesGroupBy(t, r, []string{"A", "B"})
	assertFlatMatchesGroupBy(t, r2, []string{"A", "B", "C"})
}
