package drillbench

import (
	"reflect"
	"testing"

	"scoded/internal/drilldown"
	"scoded/internal/kernel"
	"scoded/internal/sc"
)

// TestWorkloadIdentity runs the benchmark workload at a tractable size and
// checks that the measured contestants agree: the delta-argmax drill matches
// the seed-era linear greedy row for row on both constraint paths, and the
// parallel MultiTopK fan-out matches the sequential one. Without this, a
// speedup number in BENCH_drilldown.json could be comparing different
// answers.
func TestWorkloadIdentity(t *testing.T) {
	w := NewWorkloadSize(1, 600, 4)
	cache := kernel.New(w.Rel)
	for _, tc := range []struct {
		name string
		c    sc.SC
	}{
		{"tau", w.Numeric},
		{"g", w.Categorical},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast, err := drilldown.TopK(w.Rel, tc.c, w.Keep, w.options(cache, 0))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := drilldown.TopKLinear(w.Rel, tc.c, w.Keep, w.options(cache, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Errorf("delta drill diverged from linear greedy on the bench workload")
			}
		})
	}
	t.Run("multi", func(t *testing.T) {
		seq, err := drilldown.MultiTopK(w.Rel, w.Family, w.Keep, w.options(cache, 1))
		if err != nil {
			t.Fatal(err)
		}
		par, err := drilldown.MultiTopK(w.Rel, w.Family, w.Keep, w.options(cache, 4))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("parallel fan-out diverged from sequential on the bench workload")
		}
	})
}

// TestGKcDeltaAllocRegression pins the allocation budget of the G-path
// delta drill on the canonical warm-cache workload. The bound is the
// pre-flat-arena linear drill's measured 6004 allocs/op: the delta argmax
// regressed past it (8202) when cellsOf materialized per-cell row lists
// every round, and the flat counts/rowArena stratum holds it near 231.
// A failure here means a hot-path structure started allocating per round
// again.
func TestGKcDeltaAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("canonical 20k-row workload")
	}
	w := NewWorkload(1)
	cache := kernel.New(w.Rel)
	mustDrill(drilldown.TopK(w.Rel, w.Categorical, w.Keep, w.options(cache, 0)))
	allocs := testing.AllocsPerRun(3, func() {
		mustDrill(drilldown.TopK(w.Rel, w.Categorical, w.Keep, w.options(cache, 0)))
	})
	if allocs > 6004 {
		t.Errorf("g_kc_delta allocates %.0f per drill, budget 6004", allocs)
	}
}

// TestTauKcDeltaAllocRegression pins the allocation budget of the tau-path
// delta drill on the canonical warm-cache workload. The bound is the
// float-state delta drill's measured 155 allocs/op; the packed integer
// state, one record arena per drill, holds it near 102. The drill runs
// about 19,500 greedy rounds, so any structure that starts allocating per
// round blows far past the bound.
func TestTauKcDeltaAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("canonical 20k-row workload")
	}
	w := NewWorkload(1)
	cache := kernel.New(w.Rel)
	mustDrill(drilldown.TopK(w.Rel, w.Numeric, w.Keep, w.options(cache, 0)))
	allocs := testing.AllocsPerRun(3, func() {
		mustDrill(drilldown.TopK(w.Rel, w.Numeric, w.Keep, w.options(cache, 0)))
	})
	if allocs > 155 {
		t.Errorf("tau_kc_delta allocates %.0f per drill, budget 155", allocs)
	}
}

// TestWorkloadShape pins the canonical dimensions the committed
// BENCH_drilldown.json claims to measure.
func TestWorkloadShape(t *testing.T) {
	w := NewWorkload(42)
	if got := w.Rel.NumRows(); got != workloadRows {
		t.Errorf("rows = %d, want %d", got, workloadRows)
	}
	if w.Keep != workloadKeep {
		t.Errorf("keep = %d, want %d", w.Keep, workloadKeep)
	}
	if len(w.Family) != 4 {
		t.Errorf("family size = %d, want 4", len(w.Family))
	}
	// Distinct seeds must yield distinct data (the rng is actually used).
	w2 := NewWorkload(43)
	x1 := w.Rel.MustColumn("X").Floats()
	x2 := w2.Rel.MustColumn("X").Floats()
	if reflect.DeepEqual(x1, x2) {
		t.Error("seed does not vary the workload")
	}
}

// Benchmark entry points mirror the variants Bench() measures, so ad-hoc
// `go test -bench` runs and the committed report agree. They share one
// warmed workload; the canonical size makes these opt-in by nature.
var benchState struct {
	w     *Workload
	cache *kernel.Cache
}

func benchWorkload(b *testing.B) (*Workload, *kernel.Cache) {
	b.Helper()
	if benchState.w == nil {
		benchState.w = NewWorkload(1)
		benchState.cache = kernel.New(benchState.w.Rel)
		mustDrill(drilldown.TopK(benchState.w.Rel, benchState.w.Numeric, benchState.w.Keep,
			benchState.w.options(benchState.cache, 0)))
		mustDrill(drilldown.TopK(benchState.w.Rel, benchState.w.Categorical, benchState.w.Keep,
			benchState.w.options(benchState.cache, 0)))
	}
	return benchState.w, benchState.cache
}

func BenchmarkTauKcLinear(b *testing.B) {
	w, cache := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustDrill(drilldown.TopKLinear(w.Rel, w.Numeric, w.Keep, w.options(cache, 0)))
	}
}

func BenchmarkTauKcDelta(b *testing.B) {
	w, cache := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustDrill(drilldown.TopK(w.Rel, w.Numeric, w.Keep, w.options(cache, 0)))
	}
}

func BenchmarkGKcLinear(b *testing.B) {
	w, cache := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustDrill(drilldown.TopKLinear(w.Rel, w.Categorical, w.Keep, w.options(cache, 0)))
	}
}

func BenchmarkGKcDelta(b *testing.B) {
	w, cache := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustDrill(drilldown.TopK(w.Rel, w.Categorical, w.Keep, w.options(cache, 0)))
	}
}

func BenchmarkMultiSequential(b *testing.B) {
	w, cache := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := drilldown.MultiTopK(w.Rel, w.Family, w.Keep, w.options(cache, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiParallel(b *testing.B) {
	w, cache := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := drilldown.MultiTopK(w.Rel, w.Family, w.Keep, w.options(cache, 0)); err != nil {
			b.Fatal(err)
		}
	}
}
