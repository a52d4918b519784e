// Benchmarks for the kernel-cache hot path. They run the same workload as
// `scoded-bench -json` (see internal/detectbench), so BENCH_detect.json and
// `go test -bench CheckAll ./internal/detect` measure the same thing. The
// smoke test executes every variant once under plain `go test ./...`, so CI
// catches compile or logic rot on the benchmark path without timing
// flakiness.
//
// This file is in the external test package because detectbench imports
// detect; an in-package test would be an import cycle.
package detect_test

import (
	"reflect"
	"testing"

	"scoded/internal/detect"
	"scoded/internal/detectbench"
	"scoded/internal/kernel"
)

const benchSeed = 1

func benchRun(tb testing.TB, w *detectbench.Workload, cache *kernel.Cache) []detect.Result {
	tb.Helper()
	results, err := w.Run(cache, 0)
	if err != nil {
		tb.Fatalf("CheckAll: %v", err)
	}
	for _, r := range results {
		if r.Err != nil {
			tb.Fatalf("constraint %s: %v", r.Constraint.SC, r.Err)
		}
	}
	return results
}

// BenchmarkCheckAllCold measures the uncached path: every constraint
// re-derives its partitions, codings and tables.
func BenchmarkCheckAllCold(b *testing.B) {
	w := detectbench.NewWorkload(benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRun(b, w, nil)
	}
}

// BenchmarkCheckAllShared measures the steady-state cached path: a
// pre-populated kernel cache shared across runs, as scoded-serve holds one
// per registered dataset.
func BenchmarkCheckAllShared(b *testing.B) {
	w := detectbench.NewWorkload(benchSeed)
	cache := kernel.New(w.Rel)
	benchRun(b, w, cache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRun(b, w, cache)
	}
}

// TestBenchWorkloadSmoke runs each benchmark variant once and asserts the
// cached runs reproduce the uncached results exactly on the full-size
// benchmark workload.
func TestBenchWorkloadSmoke(t *testing.T) {
	w := detectbench.NewWorkload(benchSeed)
	cold := benchRun(t, w, nil)
	cache := kernel.New(w.Rel)
	fresh := benchRun(t, w, cache)
	warm := benchRun(t, w, cache)
	if !reflect.DeepEqual(cold, fresh) {
		t.Errorf("fresh-cache results differ from uncached")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm-cache results differ from uncached")
	}
	if s := cache.Stats(); s.Hits == 0 || s.Misses == 0 || s.Entries == 0 {
		t.Errorf("cache was not exercised: %+v", s)
	}
}

// TestTauBenchWorkloadSmoke is TestBenchWorkloadSmoke for the tau variant's
// workload: every constraint resolves to Kendall, and the warm-cache run —
// finished pair counts served from the cache — reproduces the uncached one.
func TestTauBenchWorkloadSmoke(t *testing.T) {
	w := detectbench.NewTauWorkload(benchSeed)
	cold := benchRun(t, w, nil)
	cache := kernel.New(w.Rel)
	benchRun(t, w, cache)
	warm := benchRun(t, w, cache)
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm-cache results differ from uncached")
	}
	for _, r := range cold {
		if r.Method != detect.Kendall {
			t.Errorf("%s resolved to %s, want Kendall", r.Constraint.SC, r.Method)
		}
	}
}
