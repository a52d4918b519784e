package server

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scoded/internal/store"
)

// corruptSegments flips a byte in the middle of every segment file under
// dir, so any attempt to decode rows fails its checksum while manifests
// stay intact. The lazy-boot tests use it to prove which paths read rows.
func corruptSegments(t *testing.T, dir string) int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*", "seg-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no segment files found to corrupt")
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xff
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(paths)
}

// TestLoadStoreIsLazy pins the boot-I/O contract: LoadStore must touch
// only manifests, never segment rows. Every segment file is corrupted
// before the reboot — a boot that read rows would fail its checksum — yet
// boot succeeds and metadata endpoints serve from the manifest; only the
// first detection request (the lazy materialization) hits the corruption.
func TestLoadStoreIsLazy(t *testing.T) {
	dir := t.TempDir()
	s1 := newDurableServer(t, dir)
	if code := do(t, s1.Handler(), "POST", "/v1/datasets?name=cars", "text/csv", []byte(testCSV(21, 200)), nil); code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}
	if code := do(t, s1.Handler(), "POST", "/v1/datasets/cars/rows", "text/csv", []byte(testCSV(22, 50)), nil); code != http.StatusOK {
		t.Fatalf("append status %d", code)
	}
	s1.Close()
	corruptSegments(t, dir)

	s2 := newDurableServer(t, dir) // boot succeeds: O(manifests), not O(rows)
	defer s2.Close()
	h := s2.Handler()

	var info datasetInfo
	if code := do(t, h, "GET", "/v1/datasets/cars", "", nil, &info); code != http.StatusOK {
		t.Fatalf("get status %d", code)
	}
	if info.Rows != 250 || len(info.Columns) != 4 {
		t.Fatalf("manifest metadata: %+v", info)
	}
	s2.mu.RLock()
	d := s2.datasets["cars"]
	cold := d != nil && d.rel == nil && d.cache == nil && d.stored && d.diskBytes > 0
	s2.mu.RUnlock()
	if !cold {
		t.Fatalf("dataset not registered cold: %+v", d)
	}

	// The first request needing rows must materialize — and hit the
	// corruption, proving boot never read what this reads.
	var checkErr struct {
		Error string `json:"error"`
	}
	code := doJSON(t, h, "POST", "/v1/check",
		map[string]any{"dataset": "cars", "constraint": "Model _||_ Price @ 0.05"}, &checkErr)
	if code != http.StatusInternalServerError {
		t.Fatalf("check on corrupted segments: status %d (%+v)", code, checkErr)
	}
	if !strings.Contains(checkErr.Error, "checksum mismatch") {
		t.Fatalf("check error %q, want checksum mismatch", checkErr.Error)
	}
}

// TestLazyMaterializationRoundTrip: a rebooted server answers checks
// identically to the one that wrote the store, materializing on first
// touch and counting the hit/miss in the residency tracker.
func TestLazyMaterializationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1 := newDurableServer(t, dir)
	if code := do(t, s1.Handler(), "POST", "/v1/datasets?name=cars", "text/csv", []byte(testCSV(31, 300)), nil); code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}
	checkReq := []byte(`{"dataset":"cars","constraints":["Model _||_ Price @ 0.05","Price _||_ Mileage | Model @ 0.05"],"workers":1}`)
	code1, body1 := doRaw(t, s1.Handler(), "POST", "/v1/checkall", "application/json", checkReq)
	if code1 != http.StatusOK {
		t.Fatalf("checkall status %d: %s", code1, body1)
	}
	s1.Close()

	s2 := newDurableServer(t, dir)
	defer s2.Close()
	code2, body2 := doRaw(t, s2.Handler(), "POST", "/v1/checkall", "application/json", checkReq)
	if code2 != http.StatusOK {
		t.Fatalf("checkall after reboot: status %d: %s", code2, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("lazy-materialized checkall differs:\n%s\nvs\n%s", body1, body2)
	}
	s2.res.mu.Lock()
	misses, bytesRes := s2.res.misses, s2.res.bytes
	s2.res.mu.Unlock()
	if misses != 1 {
		t.Fatalf("materializations = %d, want 1", misses)
	}
	if bytesRes <= 0 {
		t.Fatalf("resident bytes = %d after materialization", bytesRes)
	}
}

// TestColdAppendStaysCold: appending to a cold dataset writes the segment
// through the store without materializing, and the next materialization
// sees the appended rows.
func TestColdAppendStaysCold(t *testing.T) {
	dir := t.TempDir()
	s1 := newDurableServer(t, dir)
	if code := do(t, s1.Handler(), "POST", "/v1/datasets?name=cars", "text/csv", []byte(testCSV(41, 120)), nil); code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}
	s1.Close()

	s2 := newDurableServer(t, dir)
	defer s2.Close()
	h := s2.Handler()
	var info struct {
		datasetInfo
		Appended int `json:"appended"`
	}
	if code := do(t, h, "POST", "/v1/datasets/cars/rows", "text/csv", []byte(testCSV(42, 30)), &info); code != http.StatusOK {
		t.Fatalf("cold append status %d: %+v", code, info)
	}
	if info.Rows != 150 || info.Appended != 30 {
		t.Fatalf("cold append info: %+v", info)
	}
	s2.mu.RLock()
	stillCold := s2.datasets["cars"].rel == nil
	s2.mu.RUnlock()
	if !stillCold {
		t.Fatal("cold append materialized the dataset")
	}
	var res checkResultJSON
	code := doJSON(t, h, "POST", "/v1/check",
		map[string]any{"dataset": "cars", "constraint": "Model _||_ Price @ 0.05"}, &res)
	if code != http.StatusOK {
		t.Fatalf("check status %d (%+v)", code, res)
	}
	if res.Test.N != 150 {
		t.Fatalf("check saw N=%d rows, want 150 (appended segment missing)", res.Test.N)
	}
}

// TestEvictionUnderConcurrentCheckAll hammers two equal-sized datasets
// under a budget that holds exactly one of them. The budget is not below
// either dataset's disk size, so checkall takes the resident path, and
// with both resident every release triggers eviction while sibling
// requests hold references. Checks must all succeed (in-flight relations
// are never invalidated), the LRU must end the run within its invariants,
// and no goroutine may leak.
func TestEvictionUnderConcurrentCheckAll(t *testing.T) {
	dir := t.TempDir()
	seed := newDurableServer(t, dir)
	for _, name := range []string{"a", "b"} {
		if code := do(t, seed.Handler(), "POST", "/v1/datasets?name="+name, "text/csv", []byte(testCSV(51, 150)), nil); code != http.StatusCreated {
			t.Fatalf("upload %s status %d", name, code)
		}
	}
	var budget int64
	for _, name := range []string{"a", "b"} {
		m, err := seed.store.Manifest(name)
		if err != nil {
			t.Fatalf("Manifest(%s): %v", name, err)
		}
		budget = max(budget, segmentBytes(m))
	}
	seed.Close()

	before := runtime.NumGoroutine()
	s := newDurableServerWithBudget(t, dir, budget)
	defer s.Close()
	h := s.Handler()

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := []string{"a", "b"}[g%2]
			for i := 0; i < 6; i++ {
				var out struct {
					Checked int `json:"checked"`
					Errored int `json:"errored"`
				}
				code := doJSON(t, h, "POST", "/v1/checkall", map[string]any{
					"dataset":     name,
					"constraints": []string{"Model _||_ Price @ 0.05", "Price _||_ Mileage | Model @ 0.05"},
				}, &out)
				if code != http.StatusOK || out.Errored != 0 || out.Checked != 2 {
					errs <- fmt.Sprintf("%s run %d: status %d, %+v", name, i, code, out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// Once the storm settles the budget must hold: it fits one dataset, so
	// at most one stays resident.
	s.evictOverBudget()
	s.res.mu.Lock()
	bytesRes, entries, evictions := s.res.bytes, len(s.res.entries), s.res.evictions
	s.res.mu.Unlock()
	if bytesRes > budget || entries > 1 {
		t.Fatalf("after drain: resident bytes=%d entries=%d, want <= %d/1", bytesRes, entries, budget)
	}
	if evictions == 0 {
		t.Fatal("no evictions happened under a one-dataset budget")
	}
	s.mu.RLock()
	resident := 0
	for _, name := range []string{"a", "b"} {
		if s.datasets[name].rel != nil {
			resident++
		}
	}
	s.mu.RUnlock()
	if resident > 1 {
		t.Errorf("%d datasets still resident after drain, want at most 1", resident)
	}

	// Goroutine-leak check: allow the runtime a moment to retire workers.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// newDurableServerWithBudget is newDurableServer with a resident budget.
func newDurableServerWithBudget(t *testing.T, dir string, budget int64) *Server {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	s := New(Options{Store: st, Workers: 2, ResidentBytes: budget})
	if err := s.LoadStore(); err != nil {
		t.Fatalf("LoadStore: %v", err)
	}
	return s
}

// TestCheckAllStreamedMatchesResident drives the source chooser through
// the HTTP layer: under a tiny budget checkall streams (no
// materialization at all), and its response bytes equal the resident
// path's.
func TestCheckAllStreamedMatchesResident(t *testing.T) {
	dir := t.TempDir()
	s1 := newDurableServer(t, dir)
	if code := do(t, s1.Handler(), "POST", "/v1/datasets?name=cars", "text/csv", []byte(testCSV(61, 300)), nil); code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}
	if code := do(t, s1.Handler(), "POST", "/v1/datasets/cars/rows", "text/csv", []byte(testCSV(62, 60)), nil); code != http.StatusOK {
		t.Fatalf("append status %d", code)
	}
	req := []byte(`{"dataset":"cars","constraints":["Model _||_ Color @ 0.05","Price _||_ Mileage | Model @ 0.05","Model _||_ Price @ 0.05"],"fdr":0.1,"workers":1}`)
	wantCode, wantBody := doRaw(t, s1.Handler(), "POST", "/v1/checkall", "application/json", req)
	if wantCode != http.StatusOK {
		t.Fatalf("resident checkall status %d: %s", wantCode, wantBody)
	}
	s1.Close()

	s2 := newDurableServerWithBudget(t, dir, 1)
	s2.opts.ScanWindowRows = 37 // sub-segment windows, mid-stratum splits
	defer s2.Close()
	gotCode, gotBody := doRaw(t, s2.Handler(), "POST", "/v1/checkall", "application/json", req)
	if gotCode != http.StatusOK {
		t.Fatalf("streamed checkall status %d: %s", gotCode, gotBody)
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("streamed response differs from resident:\n%s\nvs\n%s", gotBody, wantBody)
	}
	// The streamed run must never have materialized the dataset.
	s2.mu.RLock()
	cold := s2.datasets["cars"].rel == nil
	s2.mu.RUnlock()
	if !cold {
		t.Fatal("checkall materialized a dataset larger than the whole budget")
	}
	s2.res.mu.Lock()
	misses := s2.res.misses
	s2.res.mu.Unlock()
	if misses != 0 {
		t.Fatalf("streamed checkall recorded %d materializations, want 0", misses)
	}

	// A non-stream-eligible method under the same budget falls back to
	// materialization rather than changing statistics.
	exact := []byte(`{"dataset":"cars","constraints":["Model _||_ Price @ 0.05"],"method":"pearson"}`)
	var out struct {
		Errored int `json:"errored"`
	}
	if code := do(t, s2.Handler(), "POST", "/v1/checkall", "application/json", exact, &out); code != http.StatusOK {
		t.Fatalf("pearson fallback status %d", code)
	}
	// The server alone picks the path; a request naming one is rejected
	// as an unknown field.
	legacy := []byte(`{"dataset":"cars","constraints":["Model _||_ Price @ 0.05"],"source":"stream"}`)
	if code, body := doRaw(t, s2.Handler(), "POST", "/v1/checkall", "application/json", legacy); code != http.StatusBadRequest {
		t.Fatalf("checkall with a source field: status %d: %s", code, body)
	}
}

// TestStreamedCheckAllCounters: /metrics shows which path a checkall took
// and how much it scanned. One streamed checkall over an N-row dataset adds
// 1 to scoded_checkall_stream_total and exactly N to
// scoded_store_rows_scanned_total; a resident checkall adds nothing.
func TestStreamedCheckAllCounters(t *testing.T) {
	dir := t.TempDir()
	s1 := newDurableServer(t, dir)
	if code := do(t, s1.Handler(), "POST", "/v1/datasets?name=cars", "text/csv", []byte(testCSV(63, 300)), nil); code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}
	if code := do(t, s1.Handler(), "POST", "/v1/datasets/cars/rows", "text/csv", []byte(testCSV(64, 45)), nil); code != http.StatusOK {
		t.Fatalf("append status %d", code)
	}
	req := []byte(`{"dataset":"cars","constraints":["Model _||_ Color @ 0.05","Price _||_ Mileage | Model @ 0.05","Model _||_ Price @ 0.05","Model _||_ Nope @ 0.05"]}`)
	counters := func(s *Server) (runs, rows int64) {
		t.Helper()
		_, body := doRaw(t, s.Handler(), "GET", "/metrics", "", nil)
		text := string(body)
		for _, c := range []struct {
			name string
			dst  *int64
		}{{"scoded_checkall_stream_total ", &runs}, {"scoded_store_rows_scanned_total ", &rows}} {
			if _, err := fmt.Sscanf(afterPrefix(t, text, c.name), "%d", c.dst); err != nil {
				t.Fatalf("parsing %s: %v", c.name, err)
			}
		}
		return runs, rows
	}
	if code, body := doRaw(t, s1.Handler(), "POST", "/v1/checkall", "application/json", req); code != http.StatusOK {
		t.Fatalf("resident checkall status %d: %s", code, body)
	}
	if runs, rows := counters(s1); runs != 0 || rows != 0 {
		t.Fatalf("resident checkall counted %d streamed runs over %d rows, want 0 and 0", runs, rows)
	}
	s1.Close()

	s2 := newDurableServerWithBudget(t, dir, 1)
	s2.opts.ScanWindowRows = 29
	defer s2.Close()
	m, err := s2.store.Manifest("cars")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 2; i++ {
		if code, body := doRaw(t, s2.Handler(), "POST", "/v1/checkall", "application/json", req); code != http.StatusOK {
			t.Fatalf("streamed checkall status %d: %s", code, body)
		}
		if runs, rows := counters(s2); runs != i || rows != i*int64(m.Rows) {
			t.Fatalf("after %d streamed checkalls over %d rows: counters %d and %d, want %d and %d", i, m.Rows, runs, rows, i, i*int64(m.Rows))
		}
	}
}

// TestStreamedCheckAllDuringAppend appends to a cold, over-budget dataset
// while streamed checkalls run on it. Every answer must be error-free and
// byte-equal to the resident answer for the data before or after the
// append: one request's constraint passes all scan one manifest.
func TestStreamedCheckAllDuringAppend(t *testing.T) {
	base, batch := []byte(testCSV(91, 1500)), []byte(testCSV(92, 200))
	req := []byte(`{"dataset":"cars","constraints":["Model _||_ Color @ 0.05","Price _||_ Mileage | Model @ 0.05","Model _||_ Price @ 0.05","Color _||_ Price @ 0.05","Color _||_ Mileage | Model @ 0.05","Mileage _||_ Price @ 0.05"],"fdr":0.1,"workers":1}`)

	// Resident answers for both versions.
	ref := newDurableServer(t, t.TempDir())
	defer ref.Close()
	if code := do(t, ref.Handler(), "POST", "/v1/datasets?name=cars", "text/csv", base, nil); code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}
	_, pre := doRaw(t, ref.Handler(), "POST", "/v1/checkall", "application/json", req)
	if code := do(t, ref.Handler(), "POST", "/v1/datasets/cars/rows", "text/csv", batch, nil); code != http.StatusOK {
		t.Fatalf("append status %d", code)
	}
	_, post := doRaw(t, ref.Handler(), "POST", "/v1/checkall", "application/json", req)
	if bytes.Equal(pre, post) || bytes.Contains(pre, []byte(`"error"`)) || bytes.Contains(post, []byte(`"error"`)) {
		t.Fatalf("reference answers cannot tell the versions apart:\n%s\n%s", pre, post)
	}

	dir := t.TempDir()
	seed := newDurableServer(t, dir)
	if code := do(t, seed.Handler(), "POST", "/v1/datasets?name=cars", "text/csv", base, nil); code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}
	seed.Close()
	s := newDurableServerWithBudget(t, dir, 1)
	s.opts.ScanWindowRows = 16
	defer s.Close()
	h := s.Handler()

	var done atomic.Int64
	stop := make(chan struct{})
	errs := make(chan string, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, body := doRaw(t, h, "POST", "/v1/checkall", "application/json", req)
				if code != http.StatusOK || (!bytes.Equal(body, pre) && !bytes.Equal(body, post)) {
					errs <- fmt.Sprintf("status %d: %s", code, body)
					return
				}
				done.Add(1)
			}
		}()
	}
	// Append once the readers are mid-family, then let them run on.
	for done.Load() < 4 && len(errs) == 0 {
		time.Sleep(time.Millisecond)
	}
	if code := do(t, h, "POST", "/v1/datasets/cars/rows", "text/csv", batch, nil); code != http.StatusOK {
		t.Errorf("append status %d", code)
	}
	for after := done.Load(); done.Load() < after+8 && len(errs) == 0; {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if code, body := doRaw(t, h, "POST", "/v1/checkall", "application/json", req); code != http.StatusOK || !bytes.Equal(body, post) {
		t.Fatalf("after the append: status %d, want the post-append answer: %s", code, body)
	}
}

// TestResidentMetrics smoke-checks the gauge rendering.
func TestResidentMetrics(t *testing.T) {
	dir := t.TempDir()
	s := newDurableServerWithBudget(t, dir, 1<<30)
	defer s.Close()
	if code := do(t, s.Handler(), "POST", "/v1/datasets?name=cars", "text/csv", []byte(testCSV(71, 50)), nil); code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}
	_, body := doRaw(t, s.Handler(), "GET", "/metrics", "", nil)
	text := string(body)
	for _, want := range []string{
		"scoded_resident_bytes ",
		"scoded_resident_budget_bytes 1073741824",
		"scoded_resident_relations 1",
		"scoded_resident_hits_total ",
		"scoded_resident_misses_total 0",
		"scoded_resident_evictions_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
