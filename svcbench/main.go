// Command svcbench is scoded's end-to-end service benchmark. It starts the
// real internal/server handler stack in-process on a loopback listener over
// a real internal/store directory, drives one named workload from a seed,
// checks every answer against an offline oracle, and prints the metrics as
// the last line of standard output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run replays the same seeded inputs against each layer's
// public functions and reports per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string
	commit   string
	checkall checkallSizes
	drill    drillSizes
}

// tails fixes each workload's tail percentiles for its read and write
// timings: the highest percentile with at least ten samples beyond it at
// the sample counts a 20-second run collects today (see README.md).
var tails = map[string]struct{ read, write float64 }{
	"checkall_resident": {95, 90},
	"checkall_stream":   {75, 75},
	"drill_ingest":      {90, 95},
}

// streamAppendsPerSec is checkall_stream's append rate. Its appends wait
// for the streamed checkall in flight, so the open loop must offer less
// than one append per checkall or its backlog grows without bound.
const streamAppendsPerSec = 2

// setupReps is how many times a run builds its set-up; setup_s is their
// median. Each workload gets about five seconds of set-ups: a median over a
// shorter window followed the machine's speed in that moment (see
// README.md).
var setupReps = map[string]int{
	"checkall_resident": 41,
	"checkall_stream":   11,
	"drill_ingest":      41,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's outcome.
type report struct {
	result
	// named are the workload's metrics under the names ROADMAP and the
	// benchmark doc use (checkall_p50_ms, drill_p90_ms, ...), printed for
	// people before the result line.
	named      []namedValue
	mismatches []string
	bad        int // operations the oracle rejected
}

type namedValue struct {
	name  string
	value float64
	unit  string
	n     int // sample count; 0 when not a timing
	note  string
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) name(name string, v float64, unit string, n int, note string) {
	r.named = append(r.named, namedValue{name, v, unit, n, note})
}

// workloads are the names --workload accepts.
var workloads = []string{"checkall_resident", "checkall_stream", "drill_ingest"}

func main() {
	os.Exit(run())
}

func run() int {
	cfg := config{checkall: defaultCheckall, drill: defaultDrill}
	var trace int
	fs := flag.NewFlagSet("svcbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: checkall_resident, checkall_stream or drill_ingest")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "seconds of measured load")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
	fs.StringVar(&cfg.dir, "dir", ".run", "scratch directory for stores and traces")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit (or source digest) recorded in the provenance line")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.workload == "checkall_stream" {
		cfg.checkall.AppendsPerSec = streamAppendsPerSec
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "svcbench: --seconds must be at least 1")
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known {
		fmt.Fprintf(os.Stderr, "svcbench: unknown workload %q (want one of %v)\n", cfg.workload, workloads)
		return 2
	}
	runDir := filepath.Join(cfg.dir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "svcbench: %v\n", err)
		return 2
	}
	traceDir := cfg.dir
	cfg.dir = runDir
	defer os.RemoveAll(runDir)

	prov := provenance(cfg)
	provLine, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(provLine))

	rep := &report{result: result{Metrics: map[string]metric{}}}
	var err error
	if cfg.trace {
		err = runTraced(cfg, rep, filepath.Join(traceDir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed)))
	} else {
		err = runEndToEnd(cfg, rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "svcbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, m := range rep.mismatches {
		fmt.Fprintf(os.Stderr, "svcbench: MISMATCH: %s\n", m)
	}
	for _, nv := range rep.named {
		line := fmt.Sprintf("%-34s %14.6g %-6s", nv.name, nv.value, nv.unit)
		if nv.n > 0 {
			line += fmt.Sprintf(" n=%d", nv.n)
		}
		if nv.note != "" {
			line += " " + nv.note
		}
		fmt.Println(line)
	}
	rep.Correct = len(rep.mismatches) == 0
	rep.Failed += rep.bad
	out, _ := json.Marshal(rep.result)
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

// provenance records what produced the numbers.
func provenance(cfg config) map[string]any {
	p := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     cfg.commit,
	}
	if cfg.workload == "drill_ingest" {
		p["sizes"] = cfg.drill
	} else {
		p["sizes"] = cfg.checkall
	}
	return p
}

// runEndToEnd sets the workload up setupReps times, measures one timed run
// on the last set-up, then verifies every answer.
func runEndToEnd(cfg config, rep *report) error {
	d := time.Duration(cfg.seconds) * time.Second
	seed := maphash.MakeSeed()
	var setups []float64
	timeSetup := func(setup func(int) error, teardown func() error) error {
		for i := 0; i < setupReps[cfg.workload]; i++ {
			if i > 0 {
				if err := teardown(); err != nil {
					return err
				}
			}
			// Each set-up starts from a collected heap, so garbage from the
			// previous one is not collected inside this one's timing.
			runtime.GC()
			t0 := time.Now()
			if err := setup(i); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		return nil
	}
	switch cfg.workload {
	case "checkall_resident", "checkall_stream":
		w := newCheckallWorkload(cfg)
		defer w.teardown()
		if err := timeSetup(w.setup, w.teardown); err != nil {
			return err
		}
		heap := startHeapSampler(50 * time.Millisecond)
		ld := w.load(d, seed, nil)
		heapMB := heap.finish()
		rep.Attempted, rep.Failed = ld.attempted, ld.failed
		for _, f := range ld.failures {
			fmt.Fprintf(os.Stderr, "svcbench: failed: %s\n", f)
		}
		mm, bad, err := w.verify(ld, seed)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		if w.stream {
			never := w.checkNeverMaterialized()
			mm = append(mm, never...)
			bad += len(never)
		}
		rep.mismatches, rep.bad = mm, bad
		disk, err := datasetStoreBytes(w.svc.st, checkallDataset)
		if err != nil {
			return err
		}
		sent := len(w.base)
		for i := 0; i < ld.nAppends; i++ {
			sent += len(appendBatch(cfg.seed, w.sz, i))
		}
		ck := summarize(ld.checkalls, tails[cfg.workload].read)
		ap := summarize(ld.appends, tails[cfg.workload].write)
		lag := summarize(ld.lags, 90)
		// The offered rate: the open loop fixes it, so it moves only when an
		// append outlasts the interval between two appends. Rates over append
		// service time moved with the machine's disk and CPU by more than the
		// largest bound a metric may have (see README.md).
		rate := float64(ld.nAppends*w.sz.AppendRows) / ld.lastAck.Seconds()
		setupS := medianFloat(setups)
		ratio := float64(disk) / float64(sent)
		fillEndToEnd(rep, setupS, ck.P50, rate, heapMB, ratio)
		rep.name("setup_s", setupS, "s", len(setups), "")
		rep.name("checkall_p50_ms", ck.P50, "ms", ck.N, "")
		rep.name(fmt.Sprintf("checkall_p%g_ms", ck.TailQ), ck.Tail, "ms", ck.N, tailNote(ck))
		from := "from due time"
		if w.stream {
			from = "from send"
		}
		rep.name("append_p50_ms", ap.P50, "ms", ap.N, from)
		rep.name(fmt.Sprintf("append_p%g_ms", ap.TailQ), ap.Tail, "ms", ap.N, from+tailNote(ap))
		rep.name("append_rows_per_s", rate, "1/s", ld.nAppends, "offered: rows sent / time to the last answer")
		rep.name("checkall_after_append_share", float64(ld.afterAppend)/float64(len(ld.checkalls)), "ratio", len(ld.checkalls),
			"checkalls sent first after an append was acknowledged")
		rep.name("heap_live_mb", heapMB, "MB", 0, "median of post-GC live heap samples")
		rep.name("store_bytes_per_input_byte", ratio, "ratio", 0, "")
		rep.name("loadgen.append_lag_ms", lag.P50, "ms", lag.N, fmt.Sprintf("p%g %.3g ms", lag.TailQ, lag.Tail))
	case "drill_ingest":
		w := newDrillWorkload(cfg)
		defer w.teardown()
		if err := timeSetup(w.setup, w.teardown); err != nil {
			return err
		}
		heap := startHeapSampler(50 * time.Millisecond)
		ld := w.load(d, seed, nil)
		heapMB := heap.finish()
		rep.Attempted, rep.Failed = ld.attempted, ld.failed
		for _, f := range ld.failures {
			fmt.Fprintf(os.Stderr, "svcbench: failed: %s\n", f)
		}
		mm, bad, err := w.verify(ld, seed)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		rep.mismatches, rep.bad = mm, bad
		disk, err := datasetStoreBytes(w.svc.st, drillDataset)
		if err != nil {
			return err
		}
		dr := summarize(ld.drills, tails[cfg.workload].read)
		in := summarize(ld.batches, tails[cfg.workload].write)
		rate := float64(ld.records) / d.Seconds()
		setupS := medianFloat(setups)
		ratio := float64(disk) / float64(len(w.base))
		fillEndToEnd(rep, setupS, dr.P50, rate, heapMB, ratio)
		rep.name("setup_s", setupS, "s", len(setups), "")
		rep.name("drill_p50_ms", dr.P50, "ms", dr.N, "")
		rep.name(fmt.Sprintf("drill_p%g_ms", dr.TailQ), dr.Tail, "ms", dr.N, tailNote(dr))
		rep.name("ingest_records_per_s", rate, "1/s", in.N, "")
		rep.name("ingest_p50_ms", in.P50, "ms", in.N, "")
		rep.name(fmt.Sprintf("ingest_p%g_ms", in.TailQ), in.Tail, "ms", in.N, tailNote(in))
		rep.name("heap_live_mb", heapMB, "MB", 0, "median of post-GC live heap samples")
		rep.name("store_bytes_per_input_byte", ratio, "ratio", 0, "dataset segments / CSV uploaded")
	}
	errRatio := 0.0
	if rep.Attempted > 0 {
		errRatio = float64(rep.Failed+rep.bad) / float64(rep.Attempted)
	}
	rep.set("ok_ratio", 1-errRatio, "ratio")
	rep.name("error_ratio", errRatio, "ratio", rep.Attempted, "")
	return nil
}

// fillEndToEnd sets the result's end-to-end metrics. Their names are
// role-based so every workload reports the same set: "read" is the
// closed-loop query (checkall or drill-down), "write" the concurrent
// mutation (row append or monitor record batch). Tail and write latencies
// are only printed: between runs on a shared two-CPU machine they spread
// further than the largest bound a metric may have (see README.md).
func fillEndToEnd(rep *report, setupS, readP50, writeRate, heapMB, ratio float64) {
	rep.set("setup_s", setupS, "s")
	rep.set("read_p50_ms", readP50, "ms")
	rep.set("write_records_per_s", writeRate, "1/s")
	rep.set("heap_live_mb", heapMB, "MB")
	rep.set("store_bytes_per_input_byte", ratio, "ratio")
}

// tailNote flags a tail percentile with fewer than minBeyond samples above
// it in this run.
func tailNote(t timing) string {
	if t.TailQ > t.MaxQ {
		return fmt.Sprintf(" (too few samples for p%g; highest supported p%g)", t.TailQ, t.MaxQ)
	}
	return ""
}
