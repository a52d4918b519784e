// Package detectbench defines the reproducible CheckAll workload behind the
// kernel-cache performance trajectory: cmd/scoded-bench -json and the
// benchmarks in internal/detect both run exactly this workload, so the
// committed BENCH_detect.json numbers and `go test -bench` agree on what is
// being measured.
//
// The workload is the shape the kernel cache targets (ISSUE: ≥20 constraints
// sharing attributes): every pair of a handful of categorical columns,
// conditioned on one shared stratification column, so partitions, codings
// and tables are recomputed per constraint without a cache and computed once
// with one. A numeric companion workload (NewTauWorkload) puts Kendall's
// tau on the same footing: three numeric column pairs over the same strata.
package detectbench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"scoded/internal/detect"
	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
)

// Workload is one reproducible CheckAll input: a relation plus a constraint
// family over it.
type Workload struct {
	Rel    *relation.Relation
	Family []sc.Approximate
}

// workload dimensions; see NewWorkload.
const (
	workloadRows   = 20000
	workloadCols   = 7  // pairwise → C(7,2) = 21 constraints, ≥ the 20 target
	workloadLevels = 8  // categories per tested column
	workloadStrata = 12 // categories of the shared conditioning column
)

// NewWorkload builds the canonical benchmark workload for a seed: 20000
// rows, seven 8-level categorical columns with mild pairwise dependence,
// one 12-level conditioning column, and the 21 constraints
// "Ci _||_ Cj | Region" over every column pair.
func NewWorkload(seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	region := make([]string, workloadRows)
	for i := range region {
		region[i] = fmt.Sprintf("r%d", rng.Intn(workloadStrata))
	}
	cols := make([]*relation.Column, 0, workloadCols+1)
	cols = append(cols, relation.NewCategoricalColumn("Region", region))
	// Each column depends weakly on a shared latent value so the G tests do
	// real work (non-degenerate tables) while staying deterministic.
	latent := make([]int, workloadRows)
	for i := range latent {
		latent[i] = rng.Intn(workloadLevels)
	}
	for c := 0; c < workloadCols; c++ {
		vals := make([]string, workloadRows)
		for i := range vals {
			v := rng.Intn(workloadLevels)
			if rng.Float64() < 0.25 {
				v = latent[i]
			}
			vals[i] = fmt.Sprintf("v%d", v)
		}
		cols = append(cols, relation.NewCategoricalColumn(fmt.Sprintf("C%d", c), vals))
	}
	rel, err := relation.New(cols...)
	if err != nil {
		panic(err) // impossible: equal-length generated columns
	}

	var family []sc.Approximate
	for a := 0; a < workloadCols; a++ {
		for b := a + 1; b < workloadCols; b++ {
			family = append(family, sc.Approximate{
				SC:    sc.MustParse(fmt.Sprintf("C%d _||_ C%d | Region", a, b)),
				Alpha: 0.05,
			})
		}
	}
	return &Workload{Rel: rel, Family: family}
}

// tauCols is the numeric column count of NewTauWorkload: C(3,2) = 3
// pairs, each conditioned on Region — 36 tau stratum tests per checkall.
const tauCols = 3

// NewTauWorkload builds the numeric companion of NewWorkload for a seed:
// the same row count and 12-level Region column, three numeric columns
// N0..N2 rounded to four decimals (N1 depends on N0, N2 on neither), and
// the three constraints "Ni _||_ Nj | Region", which Auto resolves to
// Kendall's tau. It draws from its own random stream, so NewWorkload's
// data is the same with or without it.
func NewTauWorkload(seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	region := make([]string, workloadRows)
	nums := make([][]float64, tauCols)
	for c := range nums {
		nums[c] = make([]float64, workloadRows)
	}
	for i := range region {
		region[i] = fmt.Sprintf("r%d", rng.Intn(workloadStrata))
		for c := range nums {
			nums[c][i] = rng.NormFloat64()
		}
		nums[1][i] = 0.3*nums[0][i] + nums[1][i]
	}
	cols := []*relation.Column{relation.NewCategoricalColumn("Region", region)}
	for c, vals := range nums {
		for i, v := range vals {
			vals[i] = math.Round(v*1e4) / 1e4
		}
		cols = append(cols, relation.NewNumericColumn(fmt.Sprintf("N%d", c), vals))
	}
	rel, err := relation.New(cols...)
	if err != nil {
		panic(err) // impossible: equal-length generated columns
	}
	var family []sc.Approximate
	for a := 0; a < tauCols; a++ {
		for b := a + 1; b < tauCols; b++ {
			family = append(family, sc.Approximate{
				SC:    sc.MustParse(fmt.Sprintf("N%d _||_ N%d | Region", a, b)),
				Alpha: 0.05,
			})
		}
	}
	return &Workload{Rel: rel, Family: family}
}

// Run checks the whole family once with the given cache (nil = uncached)
// and worker count, returning the results.
func (w *Workload) Run(cache *kernel.Cache, workers int) ([]detect.Result, error) {
	return w.RunOn(w.Rel, cache, workers)
}

// RunOn checks the family against an arbitrary relation snapshot — the
// base workload or an appended-to version of it.
func (w *Workload) RunOn(rel *relation.Relation, cache *kernel.Cache, workers int) ([]detect.Result, error) {
	return detect.CheckAll(rel, w.Family, detect.BatchOptions{
		Options: detect.Options{Cache: cache},
		Workers: workers,
	})
}

// appendRows is the batch size of the checkall_after_append variant: small
// against workloadRows, the shape of a streaming ingest tick.
const appendRows = 200

// AppendBatch generates an append batch confined to a single stratum
// ("r0"): the incremental-invalidation best case, where every other
// stratum's cache entries stay warm across the append.
func (w *Workload) AppendBatch(seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*relation.Column, 0, workloadCols+1)
	region := make([]string, appendRows)
	for i := range region {
		region[i] = "r0"
	}
	cols = append(cols, relation.NewCategoricalColumn("Region", region))
	for c := 0; c < workloadCols; c++ {
		vals := make([]string, appendRows)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%d", rng.Intn(workloadLevels))
		}
		cols = append(cols, relation.NewCategoricalColumn(fmt.Sprintf("C%d", c), vals))
	}
	batch, err := relation.New(cols...)
	if err != nil {
		panic(err) // impossible: equal-length generated columns
	}
	return batch
}

// BenchResult is one benchmark measurement in BENCH_detect.json.
type BenchResult struct {
	// Name identifies the variant: checkall_cold (no cache),
	// checkall_fresh_cache (a new cache built during the measured run),
	// checkall_warm_cache (a pre-populated cache), or
	// checkall_after_append (a pre-populated cache advanced across a
	// single-stratum append — segment-versioned invalidation keeps the
	// untouched strata warm), or checkall_warm_cache_tau (NewTauWorkload's
	// Kendall family on a pre-populated cache).
	Name string `json:"name"`
	// Iters is the iteration count testing.Benchmark settled on.
	Iters       int   `json:"iters"`
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// Report is the machine-readable content of BENCH_detect.json.
type Report struct {
	Seed        int64 `json:"seed"`
	Rows        int   `json:"rows"`
	Columns     int   `json:"columns"`
	Constraints int   `json:"constraints"`
	// TauConstraints is the size of the checkall_warm_cache_tau family.
	TauConstraints int `json:"tau_constraints"`
	// Workers is the CheckAll pool size the benchmarks ran with.
	Workers int `json:"workers"`
	// GOMAXPROCS and GoVersion record the machine the numbers came from.
	GOMAXPROCS int           `json:"gomaxprocs"`
	GoVersion  string        `json:"go_version"`
	Results    []BenchResult `json:"results"`
	// SpeedupFreshVsCold is cold ns/op divided by fresh-cache ns/op: the
	// one-shot speedup a caller gets from threading a new cache through a
	// single CheckAll. This is the acceptance headline (target ≥ 2).
	SpeedupFreshVsCold float64 `json:"speedup_fresh_vs_cold"`
	// SpeedupWarmVsCold is cold ns/op divided by warm-cache ns/op: the
	// steady-state speedup of scoded-serve re-checking a registered dataset.
	SpeedupWarmVsCold float64 `json:"speedup_warm_vs_cold"`
	// SpeedupAppendVsCold is cold ns/op divided by after-append ns/op: the
	// first checkall after an append to one stratum, where per-stratum
	// version inheritance keeps every other stratum's entries warm. Without
	// incremental invalidation this would equal the fresh-cache number;
	// with it, it approaches the warm number.
	SpeedupAppendVsCold float64 `json:"speedup_append_vs_cold"`
}

// mustRun aborts on a family-level CheckAll error (impossible for the
// generated workload) so benchmarks cannot silently measure a failed run.
func (w *Workload) mustRun(cache *kernel.Cache, workers int) []detect.Result {
	results, err := w.Run(cache, workers)
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		if r.Err != nil {
			panic(r.Err)
		}
	}
	return results
}

// Bench measures the variants with testing.Benchmark and derives the
// speedups over the G family (the tau variant has no cold counterpart).
// Workers ≤ 0 means GOMAXPROCS.
func Bench(seed int64, workers int) Report {
	w := NewWorkload(seed)
	rep := Report{
		Seed:        seed,
		Rows:        w.Rel.NumRows(),
		Columns:     len(w.Rel.Columns()),
		Constraints: len(w.Family),
		Workers:     workers,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
	}
	tau := NewTauWorkload(seed)
	rep.TauConstraints = len(tau.Family)
	variants := []struct {
		name string
		run  func(b *testing.B)
	}{
		{"checkall_cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.mustRun(nil, workers)
			}
		}},
		{"checkall_fresh_cache", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.mustRun(kernel.New(w.Rel), workers)
			}
		}},
		{"checkall_warm_cache", func(b *testing.B) {
			cache := kernel.New(w.Rel)
			w.mustRun(cache, workers) // populate outside the timed loop
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.mustRun(cache, workers)
			}
		}},
		{"checkall_after_append", func(b *testing.B) {
			batch := w.AppendBatch(seed + 1)
			grown, err := w.Rel.AppendRows(batch)
			if err != nil {
				panic(err)
			}
			// Each iteration measures the FIRST checkall after an append:
			// warm the cache at version 1 off the clock, advance it across
			// the append, then time the run against the grown relation.
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cache := kernel.NewAt(w.Rel, 1)
				w.mustRun(cache, workers)
				advanced := cache.Advance(grown, 2)
				b.StartTimer()
				results, err := w.RunOn(grown, advanced, workers)
				if err != nil {
					panic(err)
				}
				for _, r := range results {
					if r.Err != nil {
						panic(r.Err)
					}
				}
			}
		}},
		{"checkall_warm_cache_tau", func(b *testing.B) {
			cache := kernel.New(tau.Rel)
			tau.mustRun(cache, workers) // populate outside the timed loop
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tau.mustRun(cache, workers)
			}
		}},
	}
	byName := make(map[string]BenchResult, len(variants))
	for _, v := range variants {
		r := testing.Benchmark(v.run)
		br := BenchResult{
			Name:        v.name,
			Iters:       r.N,
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		rep.Results = append(rep.Results, br)
		byName[v.name] = br
	}
	cold := float64(byName["checkall_cold"].NsPerOp)
	if fresh := byName["checkall_fresh_cache"].NsPerOp; fresh > 0 {
		rep.SpeedupFreshVsCold = cold / float64(fresh)
	}
	if warm := byName["checkall_warm_cache"].NsPerOp; warm > 0 {
		rep.SpeedupWarmVsCold = cold / float64(warm)
	}
	if app := byName["checkall_after_append"].NsPerOp; app > 0 {
		rep.SpeedupAppendVsCold = cold / float64(app)
	}
	return rep
}
