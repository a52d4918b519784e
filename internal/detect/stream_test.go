package detect

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
	"scoded/internal/store"
)

// streamWorkload builds a mixed-kind relation with enough structure to
// exercise every streaming code path: dependent categorical pairs,
// correlated numeric pairs, a rare stratum below MinStratumSize, and a
// NaN-poisoned numeric column.
func streamWorkload(t *testing.T) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	const n = 400
	region := make([]string, n)
	c0 := make([]string, n)
	c1 := make([]string, n)
	n0 := make([]float64, n)
	n1 := make([]float64, n)
	n2 := make([]float64, n)
	for i := 0; i < n; i++ {
		region[i] = fmt.Sprintf("r%d", rng.Intn(8))
		if i < 3 {
			region[i] = "rare" // a stratum below the default MinStratumSize
		}
		c0[i] = fmt.Sprintf("v%d", rng.Intn(5))
		if rng.Float64() < 0.4 {
			c1[i] = c0[i] // induce dependence
		} else {
			c1[i] = fmt.Sprintf("v%d", rng.Intn(5))
		}
		n0[i] = rng.NormFloat64() * 10
		n1[i] = n0[i]*0.3 + rng.NormFloat64()
		n2[i] = rng.NormFloat64()
	}
	n2[137] = math.NaN() // poisons any Kendall over N2
	return relation.MustNew(
		relation.NewCategoricalColumn("Region", region),
		relation.NewCategoricalColumn("C0", c0),
		relation.NewCategoricalColumn("C1", c1),
		relation.NewNumericColumn("N0", n0),
		relation.NewNumericColumn("N1", n1),
		relation.NewNumericColumn("N2", n2),
	)
}

// storeStreamer persists rel into a fresh store as three segments and
// returns a Streamer reading it back in windows of windowRows.
func storeStreamer(t *testing.T, rel *relation.Relation, windowRows int) (*kernel.Streamer, *relation.Relation) {
	t.Helper()
	st := openTestStore(t)
	n := rel.NumRows()
	cut1, cut2 := n/3, 2*n/3
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	if _, err := st.Replace("w", rel.Subset(rows[:cut1])); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	for _, part := range [][]int{rows[cut1:cut2], rows[cut2:]} {
		if _, err := st.Append("w", rel.Subset(part)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	m, err := st.Manifest("w")
	if err != nil {
		t.Fatalf("Manifest: %v", err)
	}
	streamer, err := kernel.NewStreamer(kernel.StoreSource(st, m, windowRows))
	if err != nil {
		t.Fatalf("NewStreamer: %v", err)
	}
	loaded, _, err := st.Load("w")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return streamer, loaded
}

func openTestStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return s
}

func requireSameTest(t *testing.T, label string, got, want Result) {
	t.Helper()
	if (got.Err == nil) != (want.Err == nil) {
		t.Fatalf("%s: Err %v, want %v", label, got.Err, want.Err)
	}
	if got.Err != nil {
		if got.Err.Error() != want.Err.Error() {
			t.Fatalf("%s: Err %q, want %q", label, got.Err, want.Err)
		}
		return
	}
	if got.Method != want.Method || got.Violated != want.Violated {
		t.Fatalf("%s: method/violated = %v/%v, want %v/%v", label, got.Method, got.Violated, want.Method, want.Violated)
	}
	requireSameStats(t, label, got.Test, want.Test)
	if len(got.Strata) != len(want.Strata) {
		t.Fatalf("%s: %d strata, want %d", label, len(got.Strata), len(want.Strata))
	}
	for i := range want.Strata {
		g, w := got.Strata[i], want.Strata[i]
		if g.Key != w.Key || g.Size != w.Size || g.Skipped != w.Skipped {
			t.Fatalf("%s stratum %d: %+v, want %+v", label, i, g, w)
		}
		requireSameStats(t, fmt.Sprintf("%s stratum %s", label, g.Key), g.Test, w.Test)
	}
	if len(got.Leaves) != len(want.Leaves) {
		t.Fatalf("%s: %d leaves, want %d", label, len(got.Leaves), len(want.Leaves))
	}
	for i := range want.Leaves {
		requireSameTest(t, fmt.Sprintf("%s leaf %d", label, i), got.Leaves[i], want.Leaves[i])
	}
}

// requireSameStats demands bit-level equality of every TestResult field:
// the streaming path's contract is exact float reproduction, not
// tolerance-level agreement.
func requireSameStats(t *testing.T, label string, got, want stats.TestResult) {
	t.Helper()
	if math.Float64bits(got.Statistic) != math.Float64bits(want.Statistic) ||
		math.Float64bits(got.P) != math.Float64bits(want.P) ||
		got.DF != want.DF || got.N != want.N || got.Approximate != want.Approximate {
		t.Fatalf("%s: test %+v, want %+v", label, got, want)
	}
}

func streamFamily() []sc.Approximate {
	parse := func(s string) sc.Approximate {
		a, err := sc.ParseApproximate(s)
		if err != nil {
			panic(err)
		}
		return a
	}
	return []sc.Approximate{
		parse("C0 _||_ C1 | Region @ 0.05"), // conditional G, cat x cat
		parse("N0 _||_ N1 | Region @ 0.05"), // conditional Kendall
		parse("C0 _||_ N0 | Region @ 0.05"), // conditional G, mixed kinds
		parse("C0 _||_ C1 @ 0.05"),          // marginal G
		parse("N0 _||_ N1 @ 0.05"),          // marginal Kendall
		{SC: sc.Independence([]string{"C0", "C1"}, []string{"N0"}, []string{"Region"}), Alpha: 0.05}, // set constraint, decomposed
		{SC: sc.Dependence([]string{"N0"}, []string{"N1"}, nil), Alpha: 0.05},                        // DSC direction
		parse("N0 _||_ N2 | Region @ 0.05"),                                                          // NaN-poisoned Kendall: errors
		parse("C0 _||_ Nope @ 0.05"),                                                                 // missing column: errors
	}
}

// TestCheckAllStreamIdentity pins the acceptance criterion: the streamed
// family run is element-for-element bit-identical to the resident run,
// across chunk sizes that split strata mid-segment.
func TestCheckAllStreamIdentity(t *testing.T) {
	rel := streamWorkload(t)
	family := streamFamily()
	for _, windowRows := range []int{0, 1, 7, 1000} {
		streamer, loaded := storeStreamer(t, rel, windowRows)
		opts := BatchOptions{Options: Options{Cache: kernel.New(loaded)}}
		want, err := CheckAllContext(context.Background(), loaded, family, opts)
		if err != nil {
			t.Fatalf("CheckAllContext: %v", err)
		}
		got, err := CheckAllStream(context.Background(), streamer, family, BatchOptions{})
		if err != nil {
			t.Fatalf("CheckAllStream: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("window %d: %d results, want %d", windowRows, len(got), len(want))
		}
		for i := range want {
			requireSameTest(t, fmt.Sprintf("window %d constraint %d (%s)", windowRows, i, family[i].SC), got[i], want[i])
		}
	}
}

// TestCheckAllStreamFDRIdentity pins the BH post-pass on the streamed path.
func TestCheckAllStreamFDRIdentity(t *testing.T) {
	rel := streamWorkload(t)
	family := streamFamily()[:7] // drop the two error cases to keep both families populated
	streamer, loaded := storeStreamer(t, rel, 13)
	want, err := CheckAllContext(context.Background(), loaded, family,
		BatchOptions{Options: Options{Cache: kernel.New(loaded)}, FDR: 0.1})
	if err != nil {
		t.Fatalf("CheckAllContext: %v", err)
	}
	got, err := CheckAllStream(context.Background(), streamer, family, BatchOptions{FDR: 0.1})
	if err != nil {
		t.Fatalf("CheckAllStream: %v", err)
	}
	for i := range want {
		requireSameTest(t, fmt.Sprintf("constraint %d", i), got[i], want[i])
	}
}

func TestStreamEligible(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		want bool
	}{
		{Options{}, true},
		{Options{Method: G}, true},
		{Options{Method: Kendall}, true},
		{Options{Method: Pearson}, false},
		{Options{Method: Spearman}, false},
		{Options{Method: ExactG}, false},
		{Options{Method: ExactKendall}, false},
		{Options{AutoExact: true}, false},
	} {
		if got := StreamEligible(tc.opts); got != tc.want {
			t.Errorf("StreamEligible(%+v) = %v, want %v", tc.opts, got, tc.want)
		}
	}
}

// TestCheckAllStreamCancellation: a cancelled context yields per-constraint
// errors wrapping the context error, like the pool path's drain behavior.
func TestCheckAllStreamCancellation(t *testing.T) {
	rel := streamWorkload(t)
	streamer, _ := storeStreamer(t, rel, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := CheckAllStream(ctx, streamer, streamFamily()[:2], BatchOptions{})
	if err != nil {
		t.Fatalf("CheckAllStream: %v", err)
	}
	for i, r := range got {
		if r.Err == nil || !strings.Contains(r.Err.Error(), context.Canceled.Error()) {
			t.Fatalf("result %d: Err %v, want context cancellation", i, r.Err)
		}
	}
}
