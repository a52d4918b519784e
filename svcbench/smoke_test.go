package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// tinyConfig shrinks every workload so one run takes about a second.
func tinyConfig(t *testing.T, workload string) config {
	return config{
		workload: workload, seed: 5, seconds: 1, dir: t.TempDir(),
		checkall: checkallSizes{Rows: 400, Regions: 3, CatCols: 3, Levels: 3, NumCols: 2, AppendRows: 5, AppendsPerSec: 5},
		drill:    drillSizes{Rows: 400, Strata: 4, Levels: 3, K: 5, BatchRecords: 50, Window: 200},
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func metricNames(rep *report) []string {
	var out []string
	for name := range rep.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	for _, workload := range []string{"checkall_resident", "checkall_stream", "drill_ingest"} {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, workload)
			cfg.trace = traced
			rep := &report{result: result{Metrics: map[string]metric{}}}
			var err error
			if traced {
				err = runTraced(cfg, rep, filepath.Join(cfg.dir, "spans.jsonl"))
			} else {
				err = runEndToEnd(cfg, rep)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", workload, traced, err)
			}
			if len(rep.mismatches) > 0 || rep.Failed > 0 || rep.bad > 0 || rep.Attempted == 0 {
				t.Fatalf("%s traced=%v: %d attempted, %d failed, mismatches %v",
					workload, traced, rep.Attempted, rep.Failed+rep.bad, rep.mismatches)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if got := metricNames(rep); !slices.Equal(got, want) {
				t.Fatalf("%s traced=%v: metrics %v, BENCHMARK.json declares %v", workload, traced, got, want)
			}
			if traced {
				continue
			}
			if rep.Metrics["ok_ratio"].Value != 1 {
				t.Fatalf("%s: ok_ratio %v, want 1 (error ratio 0)", workload, rep.Metrics["ok_ratio"].Value)
			}
			for name, m := range rep.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive value", workload, name, m.Value)
				}
			}
		}
	}
}
