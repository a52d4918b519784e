package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scoded/internal/engine"
)

// latencyBuckets are the histogram upper bounds in seconds, rendered
// cumulatively (Prometheus-style) by /metrics.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// metrics is the stdlib-only observability collector: per-route request
// counters by status code and per-route latency histograms, exposed as
// plain text on /metrics.
type metrics struct {
	start time.Time

	// extra, when set, appends additional metric families to the /metrics
	// response. It is assigned once at construction (before any request)
	// and called outside mu, so it may take other locks freely.
	extra func(w io.Writer)

	mu     sync.Mutex
	routes map[string]*routeMetrics
	stages map[string]*stageMetrics

	// streamCheckalls counts checkalls answered by streaming the store;
	// rowsScanned counts the store rows those scans delivered.
	streamCheckalls atomic.Int64
	rowsScanned     atomic.Int64
}

// stageMetrics aggregates the engine's per-item hooks for one execution
// stage ("checkall", "drilldown"): a live in-flight gauge plus item,
// error and latency counters. Hooks fire from every pool worker, so the
// counters sit behind their own mutex rather than the route map's.
type stageMetrics struct {
	mu         sync.Mutex
	inFlight   int64
	items      int64
	errs       int64
	sumSeconds float64
}

type routeMetrics struct {
	byCode     map[int]int64
	buckets    []int64 // one count per latencyBuckets entry, non-cumulative
	overflow   int64   // observations above the last bucket
	sumSeconds float64
	count      int64
}

func newMetrics(start time.Time) *metrics {
	return &metrics{
		start:  start,
		routes: make(map[string]*routeMetrics),
		stages: make(map[string]*stageMetrics),
	}
}

// stage returns (creating on first use) the named stage's collector.
func (m *metrics) stage(name string) *stageMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.stages[name]
	if !ok {
		st = &stageMetrics{}
		m.stages[name] = st
	}
	return st
}

// engineHooks builds the engine instrumentation for one stage: OnStart
// raises the in-flight gauge, OnDone lowers it and accumulates the item's
// outcome and latency.
func (m *metrics) engineHooks(stage string) engine.Hooks {
	st := m.stage(stage)
	return engine.Hooks{
		OnStart: func() {
			st.mu.Lock()
			st.inFlight++
			st.mu.Unlock()
		},
		OnDone: func(d time.Duration, err error) {
			st.mu.Lock()
			st.inFlight--
			st.items++
			if err != nil {
				st.errs++
			}
			st.sumSeconds += d.Seconds()
			st.mu.Unlock()
		},
	}
}

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// wrap instruments a handler under the given route label (the mux
// pattern), counting the request and observing its latency.
func (m *metrics) wrap(route string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		begin := time.Now()
		h.ServeHTTP(rec, r)
		m.observe(route, rec.status, time.Since(begin).Seconds())
	})
}

func (m *metrics) observe(route string, status int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rm, ok := m.routes[route]
	if !ok {
		rm = &routeMetrics{
			byCode:  make(map[int]int64),
			buckets: make([]int64, len(latencyBuckets)),
		}
		m.routes[route] = rm
	}
	rm.byCode[status]++
	rm.count++
	rm.sumSeconds += seconds
	placed := false
	for i, le := range latencyBuckets {
		if seconds <= le {
			rm.buckets[i]++
			placed = true
			break
		}
	}
	if !placed {
		rm.overflow++
	}
}

// serveHTTP renders the counters in the Prometheus text exposition format
// (counters and cumulative histograms), without any client library.
func (m *metrics) serveHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.writeRouteMetrics(w)
	m.writeStageMetrics(w)
	m.writeScanMetrics(w)
	if m.extra != nil {
		m.extra(w)
	}
}

// writeStageMetrics renders the engine-stage gauges and counters fed by
// engineHooks.
func (m *metrics) writeStageMetrics(w io.Writer) {
	m.mu.Lock()
	names := make([]string, 0, len(m.stages))
	for name := range m.stages {
		names = append(names, name)
	}
	m.mu.Unlock()
	sort.Strings(names)

	type snapshot struct {
		name                  string
		inFlight, items, errs int64
		sumSeconds            float64
	}
	snaps := make([]snapshot, 0, len(names))
	for _, name := range names {
		st := m.stage(name)
		st.mu.Lock()
		snaps = append(snaps, snapshot{
			name: name, inFlight: st.inFlight, items: st.items,
			errs: st.errs, sumSeconds: st.sumSeconds,
		})
		st.mu.Unlock()
	}

	fmt.Fprintf(w, "# HELP scoded_engine_in_flight Work items currently executing, by engine stage.\n")
	fmt.Fprintf(w, "# TYPE scoded_engine_in_flight gauge\n")
	for _, s := range snaps {
		fmt.Fprintf(w, "scoded_engine_in_flight{stage=%q} %d\n", s.name, s.inFlight)
	}
	fmt.Fprintf(w, "# HELP scoded_engine_items_total Work items executed, by engine stage.\n")
	fmt.Fprintf(w, "# TYPE scoded_engine_items_total counter\n")
	for _, s := range snaps {
		fmt.Fprintf(w, "scoded_engine_items_total{stage=%q} %d\n", s.name, s.items)
	}
	fmt.Fprintf(w, "# HELP scoded_engine_item_errors_total Work items that finished with an error, by engine stage.\n")
	fmt.Fprintf(w, "# TYPE scoded_engine_item_errors_total counter\n")
	for _, s := range snaps {
		fmt.Fprintf(w, "scoded_engine_item_errors_total{stage=%q} %d\n", s.name, s.errs)
	}
	fmt.Fprintf(w, "# HELP scoded_engine_item_seconds_sum Total item execution time, by engine stage.\n")
	fmt.Fprintf(w, "# TYPE scoded_engine_item_seconds_sum counter\n")
	for _, s := range snaps {
		fmt.Fprintf(w, "scoded_engine_item_seconds_sum{stage=%q} %g\n", s.name, s.sumSeconds)
	}
}

// writeScanMetrics renders the streamed-checkall counters: how often the
// stream path ran and how many store rows it scanned.
func (m *metrics) writeScanMetrics(w io.Writer) {
	fmt.Fprintf(w, "# HELP scoded_checkall_stream_total Checkalls answered by streaming the store instead of a resident relation.\n")
	fmt.Fprintf(w, "# TYPE scoded_checkall_stream_total counter\n")
	fmt.Fprintf(w, "scoded_checkall_stream_total %d\n", m.streamCheckalls.Load())
	fmt.Fprintf(w, "# HELP scoded_store_rows_scanned_total Store rows decoded by streamed checkall scans.\n")
	fmt.Fprintf(w, "# TYPE scoded_store_rows_scanned_total counter\n")
	fmt.Fprintf(w, "scoded_store_rows_scanned_total %d\n", m.rowsScanned.Load())
}

func (m *metrics) writeRouteMetrics(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP scoded_uptime_seconds Time since the server started.\n")
	fmt.Fprintf(w, "# TYPE scoded_uptime_seconds gauge\n")
	fmt.Fprintf(w, "scoded_uptime_seconds %g\n", time.Since(m.start).Seconds())

	routes := make([]string, 0, len(m.routes))
	for route := range m.routes {
		routes = append(routes, route)
	}
	sort.Strings(routes)

	fmt.Fprintf(w, "# HELP scoded_requests_total Requests served, by route and status code.\n")
	fmt.Fprintf(w, "# TYPE scoded_requests_total counter\n")
	for _, route := range routes {
		rm := m.routes[route]
		codes := make([]int, 0, len(rm.byCode))
		for code := range rm.byCode {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			fmt.Fprintf(w, "scoded_requests_total{route=%q,code=\"%d\"} %d\n", route, code, rm.byCode[code])
		}
	}

	fmt.Fprintf(w, "# HELP scoded_request_duration_seconds Request latency, by route.\n")
	fmt.Fprintf(w, "# TYPE scoded_request_duration_seconds histogram\n")
	for _, route := range routes {
		rm := m.routes[route]
		cum := int64(0)
		for i, le := range latencyBuckets {
			cum += rm.buckets[i]
			fmt.Fprintf(w, "scoded_request_duration_seconds_bucket{route=%q,le=%q} %d\n",
				route, formatLe(le), cum)
		}
		fmt.Fprintf(w, "scoded_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", route, rm.count)
		fmt.Fprintf(w, "scoded_request_duration_seconds_sum{route=%q} %g\n", route, rm.sumSeconds)
		fmt.Fprintf(w, "scoded_request_duration_seconds_count{route=%q} %d\n", route, rm.count)
	}
}

func formatLe(le float64) string {
	return strconv.FormatFloat(le, 'g', -1, 64)
}

// snapshotCount returns the total request count for a route (testing aid).
func (m *metrics) snapshotCount(route string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	rm, ok := m.routes[route]
	if !ok {
		return 0
	}
	return rm.count
}
