// Package oocorebench measures the out-of-core detection path (DESIGN.md
// section 16) against the resident one: cmd/scoded-bench -json -suite
// oocore runs exactly this workload and writes BENCH_oocore.json.
//
// The workload is detectbench's canonical 20000-row, 21-constraint family
// persisted to a throwaway store as three segments. Four variants are
// measured: the steady-state resident CheckAll (relation and kernel cache
// already in memory), the cold materialize-then-check path (what a lazy
// first touch pays), and the streamed CheckAllStream at whole-segment and
// sub-segment window granularity (what a dataset over the resident budget
// pays instead of materializing). Every streamed run is asserted
// bit-identical to the resident results before timing begins.
package oocorebench

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"

	"scoded/internal/detect"
	"scoded/internal/detectbench"
	"scoded/internal/kernel"
	"scoded/internal/store"
)

// windowRows is the sub-segment window granularity of the fourth variant:
// small enough that every segment splits into many windows, large enough
// to amortize the per-window decode.
const windowRows = 2048

// BenchResult is one measurement in BENCH_oocore.json.
type BenchResult struct {
	// Name identifies the variant: checkall_resident (relation and cache
	// in memory), checkall_materialize (store load + uncached CheckAll per
	// iteration — the lazy cold-miss cost), checkall_stream_segment
	// (CheckAllStream over whole segments), or checkall_stream_window
	// (CheckAllStream over 2048-row windows).
	Name        string `json:"name"`
	Iters       int    `json:"iters"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

// Report is the machine-readable content of BENCH_oocore.json.
type Report struct {
	Seed        int64 `json:"seed"`
	Rows        int   `json:"rows"`
	Columns     int   `json:"columns"`
	Constraints int   `json:"constraints"`
	// Workers is the resident CheckAll pool size; the streamed path is
	// sequential by construction (one scan pass per constraint).
	Workers int `json:"workers"`
	// DiskBytes is the stored dataset's on-disk segment size.
	DiskBytes int64         `json:"disk_bytes"`
	Segments  int           `json:"segments"`
	Results   []BenchResult `json:"results"`
	// StreamOverheadVsResident is streamed (whole-segment) ns/op divided
	// by resident ns/op: the wall-clock price of never materializing.
	StreamOverheadVsResident float64 `json:"stream_overhead_vs_resident"`
	// MaterializeBytesVsStreamScan is materialize bytes/op divided by one
	// streamed scan's bytes (whole-segment bytes/op over the constraint
	// count). The streamed path re-scans per constraint, so its total churn
	// exceeds one materialization; what stays bounded — and what this ratio
	// sizes — is the transient footprint of a single pass versus decoding
	// the whole relation at once.
	MaterializeBytesVsStreamScan float64 `json:"materialize_bytes_vs_stream_scan"`
}

// storedWorkload is the benchmark input: the in-memory workload plus its
// three-segment persisted form.
type storedWorkload struct {
	w  *detectbench.Workload
	st *store.Store
}

// newStoredWorkload persists the canonical workload into a fresh store
// under dir as three segments (replace + two appends).
func newStoredWorkload(seed int64, dir string) (*storedWorkload, *store.Manifest, error) {
	w := detectbench.NewWorkload(seed)
	st, err := store.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	n := w.Rel.NumRows()
	cut1, cut2 := n/2, 3*n/4
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	if _, err := st.Replace("bench", w.Rel.Subset(rows[:cut1])); err != nil {
		return nil, nil, err
	}
	if _, err := st.Append("bench", w.Rel.Subset(rows[cut1:cut2])); err != nil {
		return nil, nil, err
	}
	m, err := st.Append("bench", w.Rel.Subset(rows[cut2:]))
	if err != nil {
		return nil, nil, err
	}
	return &storedWorkload{w: w, st: st}, m, nil
}

// streamer builds a kernel.Streamer over the stored dataset at the given
// window granularity (0 = whole segments).
func (sw *storedWorkload) streamer(m *store.Manifest, window int) (*kernel.Streamer, error) {
	return kernel.NewStreamer(kernel.StoreSource(sw.st, m, window))
}

// checkStream runs the family through CheckAllStream, panicking on any
// per-constraint error so a broken run cannot be timed.
func (sw *storedWorkload) checkStream(str *kernel.Streamer) []detect.Result {
	results, err := detect.CheckAllStream(context.Background(), str, sw.w.Family, detect.BatchOptions{})
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

// assertIdentical panics unless the streamed results match the resident
// ones bit for bit — the correctness contract the benchmark rides on.
func assertIdentical(resident, streamed []detect.Result) {
	if len(resident) != len(streamed) {
		panic(fmt.Sprintf("oocorebench: %d streamed results, want %d", len(streamed), len(resident)))
	}
	for i := range resident {
		a, b := resident[i].Test, streamed[i].Test
		if math.Float64bits(a.Statistic) != math.Float64bits(b.Statistic) ||
			math.Float64bits(a.P) != math.Float64bits(b.P) ||
			a.DF != b.DF || a.N != b.N ||
			resident[i].Violated != streamed[i].Violated {
			panic(fmt.Sprintf("oocorebench: constraint %d diverged: resident %+v, streamed %+v",
				i, a, b))
		}
	}
}

// Bench measures the four variants and derives the headline ratios.
// Workers ≤ 0 means GOMAXPROCS for the resident pool.
func Bench(seed int64, workers int) (Report, error) {
	dir, err := os.MkdirTemp("", "scoded-oocore-*")
	if err != nil {
		return Report{}, err
	}
	defer os.RemoveAll(dir)
	sw, m, err := newStoredWorkload(seed, dir)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		Seed:        seed,
		Rows:        sw.w.Rel.NumRows(),
		Columns:     len(sw.w.Rel.Columns()),
		Constraints: len(sw.w.Family),
		Workers:     workers,
		Segments:    len(m.Segments),
	}
	for _, seg := range m.Segments {
		rep.DiskBytes += seg.Bytes
	}

	// Correctness first: both streamed granularities must reproduce the
	// resident results exactly.
	cache := kernel.New(sw.w.Rel)
	resident, err := sw.w.Run(cache, workers)
	if err != nil {
		return Report{}, err
	}
	segStreamer, err := sw.streamer(m, 0)
	if err != nil {
		return Report{}, err
	}
	winStreamer, err := sw.streamer(m, windowRows)
	if err != nil {
		return Report{}, err
	}
	assertIdentical(resident, sw.checkStream(segStreamer))
	assertIdentical(resident, sw.checkStream(winStreamer))

	variants := []struct {
		name string
		run  func(b *testing.B)
	}{
		{"checkall_resident", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sw.w.Run(cache, workers); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"checkall_materialize", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rel, _, err := sw.st.Load("bench")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sw.w.RunOn(rel, nil, workers); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"checkall_stream_segment", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sw.checkStream(segStreamer)
			}
		}},
		{"checkall_stream_window", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sw.checkStream(winStreamer)
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
	if res := byName["checkall_resident"]; res.NsPerOp > 0 {
		rep.StreamOverheadVsResident = float64(byName["checkall_stream_segment"].NsPerOp) / float64(res.NsPerOp)
	}
	if str := byName["checkall_stream_segment"]; str.BytesPerOp > 0 && rep.Constraints > 0 {
		perScan := float64(str.BytesPerOp) / float64(rep.Constraints)
		rep.MaterializeBytesVsStreamScan = float64(byName["checkall_materialize"].BytesPerOp) / perScan
	}
	return rep, nil
}
