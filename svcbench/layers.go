package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"scoded/internal/detect"
	"scoded/internal/drilldown"
	"scoded/internal/engine"
	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
	"scoded/internal/store"
	"scoded/internal/stream"
)

// The traced run. It sets the workload up once, runs half of --seconds of
// the same load with client spans, verifies it, then replays the same
// seeded inputs against the public functions of each layer — server
// through stats — with a span around every call. The per-layer metrics are
// read back from the spans; the spans are written out at the end.

// layerMetrics lists every per-layer metric with its unit. A workload
// reports 0 for a layer its service path does not run.
var layerMetrics = []struct{ name, unit string }{
	{"server.checkall_envelope_ms", "ms"},
	{"server.checkall_response_kb", "KiB"},
	{"server.append_envelope_ms", "ms"},
	{"server.records_envelope_ms", "ms"},
	{"detect.checkall_ms", "ms"},
	{"detect.checkall_after_append_ms", "ms"},
	{"detect.stream_checkall_ms", "ms"},
	{"engine.queue_wait_ms", "ms"},
	{"engine.item_p50_ms", "ms"},
	{"kernel.cache_hit_ratio", "ratio"},
	{"kernel.cache_hits", "count"},
	{"kernel.cache_misses", "count"},
	{"kernel.partition_ms", "ms"},
	{"kernel.codes_ms", "ms"},
	{"kernel.table_build_ms", "ms"},
	{"kernel.kendall_prep_ms", "ms"},
	{"kernel.stream_fold_ms", "ms"},
	{"kernel.scan_passes_per_checkall", "count"},
	{"kernel.stream_allocs_per_checkall", "count"},
	{"store.decode_ms_per_checkall", "ms"},
	{"store.read_window_ms", "ms"},
	{"store.rows_decoded_per_checkall", "count"},
	{"store.segments", "count"},
	{"store.append_ms", "ms"},
	{"store.append_log_ms", "ms"},
	{"relation.read_csv_ms", "ms"},
	{"relation.append_rows_ms", "ms"},
	{"relation.group_by_flat_ms", "ms"},
	{"stats.gtest_ms_per_checkall", "ms"},
	{"stats.kendall_ms_per_checkall", "ms"},
	{"stats.combine_fdr_ms_per_checkall", "ms"},
	{"drilldown.topk_tau_ms", "ms"},
	{"drilldown.topk_g_ms", "ms"},
	{"drilldown.multi_ms", "ms"},
	{"drilldown.multi_parallel_ratio", "ratio"},
	{"stream.numeric_us_per_record", "us"},
	{"stream.categorical_us_per_record", "us"},
	{"loadgen.append_lag_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// Replay repetitions: enough for a stable median, few enough that the
// traced run stays within the end-to-end run's time.
const (
	repsFast    = 20 // calls of a few milliseconds
	repsSlow    = 5  // calls of a hundred milliseconds or more
	afterAppend = 8  // appends replayed for the after-append and store timings
)

func runTraced(cfg config, rep *report, tracePath string) error {
	for _, m := range layerMetrics {
		rep.set(m.name, 0, m.unit)
	}
	rec := newRecorder()
	d := time.Duration(cfg.seconds) * time.Second / 2
	if d < time.Second {
		d = time.Second
	}
	var err error
	if cfg.workload == "drill_ingest" {
		err = traceDrill(cfg, rep, rec, d)
	} else {
		err = traceCheckall(cfg, rep, rec, d)
	}
	if err != nil {
		return err
	}
	for _, m := range layerMetrics {
		v := rep.Metrics[m.name].Value
		rep.name(m.name, v, m.unit, 0, "")
	}
	if err := rec.write(tracePath); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "svcbench: wrote %d spans to %s\n", len(rec.spans), tracePath)
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianSpan is the median duration of the spans with the given name, in ms.
func (r *recorder) medianSpan(name string) float64 { return medianMS(r.durations(name)) }

// sumByParent totals, per parent span, the durations of the named child
// spans, and returns the median total in ms: the per-checkall cost of a
// layer called many times within one checkall.
func (r *recorder) sumByParent(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	totals := map[int]time.Duration{}
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			totals[s.Parent] += s.dur()
		}
	}
	vs := make([]float64, 0, len(totals))
	for _, t := range totals {
		vs = append(vs, ms(t))
	}
	return medianFloat(vs)
}

// engineProbe records engine.Hooks callbacks of one batch at a time: how
// long each item waited from the batch start to its start, and how long it
// ran.
type engineProbe struct {
	mu    sync.Mutex
	start time.Time
	waits []time.Duration
	items []time.Duration
}

func (p *engineProbe) arm() {
	p.mu.Lock()
	p.start = time.Now()
	p.mu.Unlock()
}

func (p *engineProbe) hooks() engine.Hooks {
	return engine.Hooks{
		OnStart: func() {
			p.mu.Lock()
			p.waits = append(p.waits, time.Since(p.start))
			p.mu.Unlock()
		},
		OnDone: func(d time.Duration, _ error) {
			p.mu.Lock()
			p.items = append(p.items, d)
			p.mu.Unlock()
		},
	}
}

func (p *engineProbe) report(rep *report) {
	rep.set("engine.queue_wait_ms", medianMS(p.waits), "ms")
	rep.set("engine.item_p50_ms", medianMS(p.items), "ms")
}

// serve calls the live service's handler in-process, without the network.
func serve(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// overheadPct runs a replay reps times with the recorder and reps times
// with a nil one, alternating which goes first, and returns how much slower
// the traced median was. run must open the same spans it opens in the
// traced replay.
func overheadPct(rec *recorder, reps int, run func(r *recorder, it int)) float64 {
	var with, without []time.Duration
	timeRun := func(r *recorder, it int) time.Duration {
		t0 := time.Now()
		run(r, it)
		return time.Since(t0)
	}
	for i := 0; i < reps; i++ {
		if i%2 == 0 {
			with = append(with, timeRun(rec, i))
			without = append(without, timeRun(nil, i))
		} else {
			without = append(without, timeRun(nil, i))
			with = append(with, timeRun(rec, i))
		}
	}
	return (medianMS(with)/medianMS(without) - 1) * 100
}

func traceCheckall(cfg config, rep *report, rec *recorder, d time.Duration) error {
	w := newCheckallWorkload(cfg)
	if err := w.setup(0); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer w.teardown()
	seed := maphash.MakeSeed()
	ld := w.load(d, seed, rec)
	rep.Attempted, rep.Failed = ld.attempted, ld.failed
	mm, bad, err := w.verify(ld, seed)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	rep.mismatches, rep.bad = mm, bad
	rep.set("loadgen.append_lag_ms", medianMS(ld.lags), "ms")
	st, err := w.svc.st.Stats()
	if err != nil {
		return err
	}
	rep.set("store.segments", float64(st.Segments), "count")

	ctx := context.Background()
	fam := make([]sc.Approximate, len(w.family))
	for i, text := range w.family {
		if fam[i], err = sc.ParseApproximate(text); err != nil {
			return err
		}
	}
	// The benchmark's own copy of the service's current data version.
	current := bytes.NewBuffer(append([]byte(nil), w.base...))
	for i := 0; i < ld.nAppends; i++ {
		current.Write(appendRowsOnly(appendBatch(cfg.seed, w.sz, i)))
	}
	var rel *relation.Relation
	for i := 0; i < repsSlow; i++ {
		rec.timed("relation.read_csv", 0, i, func() { rel, err = relation.ReadCSV(bytes.NewReader(current.Bytes())) })
		if err != nil {
			return err
		}
	}
	rep.set("relation.read_csv_ms", rec.medianSpan("relation.read_csv"), "ms")
	h := w.svc.srv.Handler()
	var body []byte
	reps := repsFast
	if w.stream {
		reps = repsSlow
	}
	for i := 0; i < reps; i++ {
		var code int
		rec.timed("server.checkall", 0, i, func() { code, body = serve(h, http.MethodPost, "/v1/checkall", []byte(checkallBody)) })
		if code != http.StatusOK {
			return fmt.Errorf("traced checkall: HTTP %d: %s", code, body)
		}
	}
	rep.set("server.checkall_response_kb", float64(len(body))/1024, "KiB")
	var direct float64
	if w.stream {
		direct, err = traceStreamLayers(ctx, rep, rec, w.svc.st, fam)
	} else {
		direct, err = traceResidentLayers(ctx, rep, rec, rel, fam)
	}
	if err != nil {
		return err
	}
	rep.set("server.checkall_envelope_ms", rec.medianSpan("server.checkall")-direct, "ms")
	return traceAppends(ctx, cfg, rep, rec, w, ld.nAppends, rel)
}

// traceResidentLayers replays the resident checkall path and returns the
// direct detect.CheckAllContext median the envelope is measured against.
func traceResidentLayers(ctx context.Context, rep *report, rec *recorder, rel *relation.Relation, fam []sc.Approximate) (float64, error) {
	for i := 0; i < repsFast; i++ {
		rec.timed("relation.group_by_flat", 0, i, func() { rel.GroupByFlat([]string{"Region"}) })
	}
	rep.set("relation.group_by_flat_ms", rec.medianSpan("relation.group_by_flat"), "ms")

	// Cold kernel builds: what the first checkall after a cache reset pays,
	// phase by phase, over every stratum of every constraint.
	var g []*stats.Table
	var gKeys []int // constraint index of each table
	type kPrep struct {
		x, y []float64
		prep *stats.KendallPrep
		c    int
	}
	var kp []kPrep
	for it := 0; it < repsSlow; it++ {
		cache := kernel.New(rel)
		var part *kernel.Partition
		var err error
		rec.timed("kernel.partition", 0, it, func() { part, err = cache.PartitionContext(ctx, rel, []string{"Region"}) })
		if err != nil {
			return 0, err
		}
		g, gKeys, kp = g[:0], gKeys[:0], kp[:0]
		for _, phase := range []string{"kernel.codes", "kernel.table_build", "kernel.kendall_prep"} {
			id := rec.begin(phase, 0, it)
			for ci, a := range fam {
				x, y := a.SC.X[0], a.SC.Y[0]
				numeric := rel.MustColumn(x).Kind == relation.Numeric
				for _, k := range part.Keys {
					rows := part.Groups[k]
					if len(rows) < 5 {
						continue
					}
					key := part.StratumRowsKey(k)
					switch {
					case phase == "kernel.codes" && !numeric:
						for _, col := range []string{x, y} {
							if _, _, err = cache.CodesContext(ctx, rel, col, 4, key, rows); err != nil {
								return 0, err
							}
						}
					case phase == "kernel.table_build" && !numeric:
						t, _, _, err := cache.TableContext(ctx, rel, x, y, 4, key, rows)
						if err != nil {
							return 0, err
						}
						g, gKeys = append(g, &t), append(gKeys, ci)
					case phase == "kernel.kendall_prep" && numeric:
						p, err := cache.KendallPrepContext(ctx, rel, x, y, key, rows)
						if err != nil {
							return 0, err
						}
						xs, err := cache.FloatsContext(ctx, rel, x, key, rows)
						if err != nil {
							return 0, err
						}
						ys, err := cache.FloatsContext(ctx, rel, y, key, rows)
						if err != nil {
							return 0, err
						}
						kp = append(kp, kPrep{xs, ys, p, ci})
					}
				}
			}
			rec.end(id)
		}
	}
	for _, m := range []string{"partition", "codes", "table_build", "kendall_prep"} {
		rep.set("kernel."+m+"_ms", rec.medianSpan("kernel."+m), "ms")
	}

	// The statistics over those tables and preps, then the strata combine
	// and the family's BH-FDR pass.
	statsPass := func(rec *recorder, it int) {
		root := rec.begin("stats.checkall", 0, it)
		gRes := make([]stats.TestResult, len(g))
		for i, t := range g {
			rec.timed("stats.gtest", root, it, func() { gRes[i], _ = stats.GTest(*t) })
		}
		kRes := make([]stats.TestResult, len(kp))
		for i, p := range kp {
			rec.timed("stats.kendall", root, it, func() { kRes[i], _ = stats.KendallTestPrepped(p.x, p.y, p.prep) })
		}
		rec.timed("stats.combine_fdr", root, it, func() {
			ps := make([]float64, len(fam))
			byC := map[int][]stats.TestResult{}
			for i, r := range gRes {
				byC[gKeys[i]] = append(byC[gKeys[i]], r)
			}
			for c, rs := range byC {
				ps[c] = stats.CombineG(rs).P
			}
			zs, ns := map[int][]float64{}, map[int][]int{}
			for i, r := range kRes {
				z := stats.StdNormal.Quantile(1 - r.P/2)
				if math.IsInf(z, 1) || z > 40 {
					z = 40
				}
				zs[kp[i].c] = append(zs[kp[i].c], z)
				ns[kp[i].c] = append(ns[kp[i].c], r.N)
			}
			for c := range zs {
				_, ps[c], _ = stats.StoufferZ(zs[c], ns[c])
			}
			_, _ = stats.BenjaminiHochberg(ps, familyFDR)
		})
		rec.end(root)
	}
	for it := 0; it < repsFast; it++ {
		statsPass(rec, it)
	}
	rep.set("stats.gtest_ms_per_checkall", rec.sumByParent("stats.gtest"), "ms")
	rep.set("stats.kendall_ms_per_checkall", rec.sumByParent("stats.kendall"), "ms")
	rep.set("stats.combine_fdr_ms_per_checkall", rec.medianSpan("stats.combine_fdr"), "ms")

	// Warm checkalls, as the closed loop sees them between appends.
	cache := kernel.New(rel)
	probe := &engineProbe{}
	// One worker, as the load's checkall requests ask for.
	opts := detect.BatchOptions{Options: detect.Options{Cache: cache}, FDR: familyFDR, Workers: 1, Hooks: probe.hooks()}
	if _, err := detect.CheckAllContext(ctx, rel, fam, opts); err != nil {
		return 0, err
	}
	probe.waits, probe.items = nil, nil
	for i := 0; i < repsFast; i++ {
		probe.arm()
		var err error
		rec.timed("detect.checkall", 0, i, func() { _, err = detect.CheckAllContext(ctx, rel, fam, opts) })
		if err != nil {
			return 0, err
		}
	}
	probe.report(rep)
	rep.set("detect.checkall_ms", rec.medianSpan("detect.checkall"), "ms")
	// The stats replay opens the most spans per unit of work: one per
	// stratum test.
	rep.set("trace.overhead_pct", overheadPct(rec, repsFast, statsPass), "%")
	return rep.Metrics["detect.checkall_ms"].Value, nil
}

// streamSource is the benchmark's own kernel.StreamSource over a store
// dataset: each pass is a span whose children are the kernel's fold
// callbacks, so a pass's self time is the store's decode time.
type streamSource struct {
	rec    *recorder
	parent int
	req    int
	passes int
	rows   int
}

func (s *streamSource) source(st *store.Store, name string) (kernel.StreamSource, error) {
	m, err := st.Manifest(name)
	if err != nil {
		return kernel.StreamSource{}, err
	}
	cols := make([]kernel.StreamColumn, len(m.Schema))
	for i, c := range m.Schema {
		kind := relation.Numeric
		if c.Kind == store.ColKindCategorical {
			kind = relation.Categorical
		}
		cols[i] = kernel.StreamColumn{Name: c.Name, Kind: kind}
	}
	return kernel.StreamSource{
		Columns: cols,
		Rows:    m.Rows,
		Scan: func(ctx context.Context, fn func(*store.Segment) error) error {
			s.passes++
			pass := s.rec.begin("store.scan_pass", s.parent, s.req)
			defer s.rec.end(pass)
			return st.ScanChunks(ctx, name, 0, func(seg *store.Segment) error {
				s.rows += seg.Rows
				fold := s.rec.begin("kernel.fold", pass, s.req)
				defer s.rec.end(fold)
				return fn(seg)
			})
		},
	}, nil
}

// traceStreamLayers replays the streamed checkall path over the service's
// own store and returns the direct detect.CheckAllStream median.
func traceStreamLayers(ctx context.Context, rep *report, rec *recorder, st *store.Store, fam []sc.Approximate) (float64, error) {
	var passes, rows, allocs []float64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < repsSlow; i++ {
		root := rec.begin("detect.stream_checkall", 0, i)
		src := &streamSource{rec: rec, parent: root, req: i}
		ks, err := src.source(st, checkallDataset)
		if err != nil {
			return 0, err
		}
		streamer, err := kernel.NewStreamer(ks)
		if err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&ms0)
		res, err := detect.CheckAllStream(ctx, streamer, fam, detect.BatchOptions{FDR: familyFDR})
		runtime.ReadMemStats(&ms1)
		rec.end(root)
		if err != nil {
			return 0, err
		}
		for _, r := range res {
			if r.Err != nil {
				return 0, r.Err
			}
		}
		passes = append(passes, float64(src.passes))
		rows = append(rows, float64(src.rows))
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
	}
	rep.set("detect.stream_checkall_ms", rec.medianSpan("detect.stream_checkall"), "ms")
	rep.set("kernel.scan_passes_per_checkall", medianFloat(passes), "count")
	rep.set("store.rows_decoded_per_checkall", medianFloat(rows), "count")
	rep.set("kernel.stream_allocs_per_checkall", medianFloat(allocs), "count")
	// Per checkall: fold callbacks grouped under their pass, passes under
	// their checkall.
	rec.mu.Lock()
	passOf := map[int]int{}
	for _, s := range rec.spans {
		if s.Name == "store.scan_pass" {
			passOf[s.ID] = s.Parent
		}
	}
	fold, decode := map[int]time.Duration{}, map[int]time.Duration{}
	for _, s := range rec.spans {
		switch s.Name {
		case "kernel.fold":
			fold[passOf[s.Parent]] += s.dur()
		case "store.scan_pass":
			decode[s.Parent] += selfTime(s, rec.spans)
		}
	}
	rec.mu.Unlock()
	var fv, dv []float64
	for k := range decode {
		fv, dv = append(fv, ms(fold[k])), append(dv, ms(decode[k]))
	}
	rep.set("kernel.stream_fold_ms", medianFloat(fv), "ms")
	rep.set("store.decode_ms_per_checkall", medianFloat(dv), "ms")

	// One full read of the dataset through the segment reader.
	paths, err := filepath.Glob(filepath.Join(st.Dir(), "ds-"+checkallDataset, "seg-*"))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("finding segments: %v (%d found)", err, len(paths))
	}
	sort.Strings(paths)
	for i := 0; i < repsSlow; i++ {
		id := rec.begin("store.read_window", 0, i)
		for _, p := range paths {
			r, err := store.OpenSegment(p)
			if err != nil {
				return 0, err
			}
			_, err = r.ReadWindow(0, r.Rows())
			r.Close()
			if err != nil {
				return 0, err
			}
		}
		rec.end(id)
	}
	rep.set("store.read_window_ms", rec.medianSpan("store.read_window"), "ms")
	direct := rep.Metrics["detect.stream_checkall_ms"].Value
	run := func(src *streamSource) {
		ks, err := src.source(st, checkallDataset)
		if err != nil {
			return
		}
		if streamer, err := kernel.NewStreamer(ks); err == nil {
			_, _ = detect.CheckAllStream(ctx, streamer, fam, detect.BatchOptions{FDR: familyFDR})
		}
	}
	rep.set("trace.overhead_pct", overheadPct(rec, repsSlow, func(r *recorder, it int) {
		root := r.begin("detect.stream_checkall", 0, it)
		run(&streamSource{rec: r, parent: root, req: it})
		r.end(root)
	}), "%")
	return direct, nil
}

// traceAppends replays appends: through the live handler (the envelope),
// and directly through CSV parsing, relation.AppendRows and a store of the
// benchmark's own. On the resident path it also times the first checkall
// after each append and the kernel cache's hits and misses for it.
func traceAppends(ctx context.Context, cfg config, rep *report, rec *recorder, w *checkallWorkload, next int, rel *relation.Relation) error {
	kinds := map[string]relation.Kind{}
	for _, name := range rel.Columns() {
		kinds[name] = rel.MustColumn(name).Kind
	}
	st, err := store.Open(filepath.Join(cfg.dir, "layer-store"))
	if err != nil {
		return err
	}
	if _, err := st.Replace(checkallDataset, rel); err != nil {
		return err
	}
	fam := make([]sc.Approximate, len(w.family))
	for i, text := range w.family {
		fam[i], _ = sc.ParseApproximate(text)
	}
	cache := kernel.NewAt(rel, 1)
	if !w.stream {
		if _, err := detect.CheckAllContext(ctx, rel, fam, detect.BatchOptions{Options: detect.Options{Cache: cache}, FDR: familyFDR}); err != nil {
			return err
		}
	}
	h := w.svc.srv.Handler()
	var hits, misses, ratios []float64
	for i := 0; i < afterAppend; i++ {
		batch := appendBatch(cfg.seed, w.sz, next+i)
		code, out := 0, []byte(nil)
		rec.timed("server.append", 0, i, func() {
			code, out = serve(h, http.MethodPost, "/v1/datasets/"+checkallDataset+"/rows", batch)
		})
		if code/100 != 2 {
			return fmt.Errorf("traced append: HTTP %d: %s", code, out)
		}
		var b *relation.Relation
		rec.timed("relation.read_csv_batch", 0, i, func() { b, err = relation.ReadCSVTyped(bytes.NewReader(batch), kinds) })
		if err != nil {
			return err
		}
		rec.timed("store.append", 0, i, func() { _, err = st.Append(checkallDataset, b) })
		if err != nil {
			return err
		}
		if w.stream {
			continue
		}
		rec.timed("relation.append_rows", 0, i, func() { rel, err = rel.AppendRows(b) })
		if err != nil {
			return err
		}
		cache = cache.Advance(rel, uint64(i+2))
		before := cache.Stats()
		opts := detect.BatchOptions{Options: detect.Options{Cache: cache}, FDR: familyFDR, Workers: 1}
		rec.timed("detect.checkall_after_append", 0, i, func() { _, err = detect.CheckAllContext(ctx, rel, fam, opts) })
		if err != nil {
			return err
		}
		after := cache.Stats()
		dh, dm := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
		hits, misses, ratios = append(hits, dh), append(misses, dm), append(ratios, dh/(dh+dm))
	}
	direct := rec.medianSpan("relation.read_csv_batch") + rec.medianSpan("store.append")
	rep.set("store.append_ms", rec.medianSpan("store.append"), "ms")
	if !w.stream {
		direct += rec.medianSpan("relation.append_rows")
		rep.set("relation.append_rows_ms", rec.medianSpan("relation.append_rows"), "ms")
		rep.set("detect.checkall_after_append_ms", rec.medianSpan("detect.checkall_after_append"), "ms")
		rep.set("kernel.cache_hits", medianFloat(hits), "count")
		rep.set("kernel.cache_misses", medianFloat(misses), "count")
		rep.set("kernel.cache_hit_ratio", medianFloat(ratios), "ratio")
	}
	rep.set("server.append_envelope_ms", rec.medianSpan("server.append")-direct, "ms")
	return nil
}

func traceDrill(cfg config, rep *report, rec *recorder, d time.Duration) error {
	w := newDrillWorkload(cfg)
	if err := w.setup(0); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer w.teardown()
	seed := maphash.MakeSeed()
	ld := w.load(d, seed, rec)
	rep.Attempted, rep.Failed = ld.attempted, ld.failed
	mm, bad, err := w.verify(ld, seed)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	rep.mismatches, rep.bad = mm, bad
	st, err := w.svc.st.Stats()
	if err != nil {
		return err
	}
	rep.set("store.segments", float64(st.Segments), "count")

	ctx := context.Background()
	var rel *relation.Relation
	for i := 0; i < repsSlow; i++ {
		rec.timed("relation.read_csv", 0, i, func() { rel, err = relation.ReadCSV(bytes.NewReader(w.base)) })
		if err != nil {
			return err
		}
	}
	rep.set("relation.read_csv_ms", rec.medianSpan("relation.read_csv"), "ms")
	for i := 0; i < repsFast; i++ {
		rec.timed("relation.group_by_flat", 0, i, func() { rel.GroupByFlat([]string{"Region"}) })
	}
	rep.set("relation.group_by_flat_ms", rec.medianSpan("relation.group_by_flat"), "ms")

	fam := make([]sc.SC, len(w.family))
	for i, text := range w.family {
		if fam[i], err = sc.Parse(text); err != nil {
			return err
		}
	}
	cache := kernel.New(rel)
	if _, err := drilldown.MultiTopKContext(ctx, rel, fam, w.sz.K, drilldown.Options{Cache: cache}); err != nil {
		return err
	}
	for i := 0; i < repsSlow; i++ {
		for _, c := range []struct {
			span string
			sc   sc.SC
		}{{"drilldown.topk_tau", fam[0]}, {"drilldown.topk_g", fam[2]}} {
			rec.timed(c.span, 0, i, func() { _, err = drilldown.TopKContext(ctx, rel, c.sc, w.sz.K, drilldown.Options{Cache: cache}) })
			if err != nil {
				return err
			}
		}
	}
	rep.set("drilldown.topk_tau_ms", rec.medianSpan("drilldown.topk_tau"), "ms")
	rep.set("drilldown.topk_g_ms", rec.medianSpan("drilldown.topk_g"), "ms")
	probe := &engineProbe{}
	multi := func(workers int) func() {
		return func() {
			probe.arm()
			_, err = drilldown.MultiTopKContext(ctx, rel, fam, w.sz.K,
				drilldown.Options{Cache: cache, Workers: workers, Hooks: probe.hooks()})
		}
	}
	// The load's drills ask for one worker; the default pool runs beside
	// them for the parallel ratio. The engine probe keeps the one-worker
	// runs.
	for i := 0; i < repsSlow; i++ {
		rec.timed("drilldown.multi_parallel", 0, i, multi(0))
		if err != nil {
			return err
		}
	}
	probe.waits, probe.items = nil, nil
	for i := 0; i < repsSlow; i++ {
		rec.timed("drilldown.multi", 0, i, multi(1))
		if err != nil {
			return err
		}
	}
	probe.report(rep)
	rep.set("drilldown.multi_ms", rec.medianSpan("drilldown.multi"), "ms")
	rep.set("drilldown.multi_parallel_ratio", rec.medianSpan("drilldown.multi")/rec.medianSpan("drilldown.multi_parallel"), "ratio")
	// The one-worker replay as traced, span and engine hooks included,
	// against the same call with neither.
	rep.set("trace.overhead_pct", overheadPct(rec, repsSlow, func(r *recorder, it int) {
		opts := drilldown.Options{Cache: cache, Workers: 1}
		if r != nil {
			probe.arm()
			opts.Hooks = probe.hooks()
		}
		r.timed("drilldown.multi", 0, it, func() { _, err = drilldown.MultiTopKContext(ctx, rel, fam, w.sz.K, opts) })
	}), "%")
	if err != nil {
		return err
	}

	// Monitors: the record batches after the ones the load sent, inserted
	// directly, logged to a store of the benchmark's own, and sent through
	// the live handler.
	lst, err := store.Open(filepath.Join(cfg.dir, "layer-store"))
	if err != nil {
		return err
	}
	num, err := stream.NewNumericMonitor(monitorAlpha, false, w.sz.Window)
	if err != nil {
		return err
	}
	cat, err := stream.NewCategoricalMonitor(monitorAlpha, false, w.sz.Window)
	if err != nil {
		return err
	}
	h := w.svc.srv.Handler()
	const batches = 40
	for i := 0; i < batches; i++ {
		b := makeRecordBatch(cfg.seed, w.sz, ld.acked+i)
		if b.numeric {
			rec.timed("stream.numeric_insert", 0, i, func() { _, err = num.InsertBatch(ctx, b.xf, b.yf) })
			if err == nil {
				rec.timed("store.append_log", 0, i, func() { err = lst.AppendLog(1, store.ColKindNumeric, nil, nil, b.xf, b.yf, w.sz.Window) })
			}
		} else {
			rec.timed("stream.categorical_insert", 0, i, func() { _, err = cat.InsertBatch(ctx, b.xs, b.ys) })
			if err == nil {
				rec.timed("store.append_log", 0, i, func() { err = lst.AppendLog(2, store.ColKindCategorical, b.xs, b.ys, nil, nil, w.sz.Window) })
			}
		}
		if err != nil {
			return err
		}
		body := recordsBody(b)
		code, out := 0, []byte(nil)
		rec.timed("server.records", 0, i, func() { code, out = serve(h, http.MethodPost, w.recordsPath(ld.acked+i), body) })
		if code != http.StatusOK {
			return fmt.Errorf("traced records: HTTP %d: %s", code, out)
		}
	}
	perRecord := func(name string) float64 {
		return medianMS(rec.durations(name)) * 1000 / float64(w.sz.BatchRecords)
	}
	rep.set("stream.numeric_us_per_record", perRecord("stream.numeric_insert"), "us")
	rep.set("stream.categorical_us_per_record", perRecord("stream.categorical_insert"), "us")
	rep.set("store.append_log_ms", rec.medianSpan("store.append_log"), "ms")
	insert := (rec.medianSpan("stream.numeric_insert") + rec.medianSpan("stream.categorical_insert")) / 2
	rep.set("server.records_envelope_ms", rec.medianSpan("server.records")-insert-rec.medianSpan("store.append_log"), "ms")
	return nil
}
