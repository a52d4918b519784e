package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"scoded/internal/drilldown"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/server"
	"scoded/internal/stream"
)

const (
	drillDataset = "dr"
	monitorAlpha = 0.05
)

// drillWorkload drives drill_ingest: one closed-loop family drill-down
// client beside one closed-loop record-ingest client alternating between a
// numeric and a categorical windowed monitor with durable logs.
type drillWorkload struct {
	cfg       config
	sz        drillSizes
	base      []byte
	family    []string
	drillBody []byte
	svc       *service
	monitors  [2]int // numeric, categorical
}

func newDrillWorkload(cfg config) *drillWorkload {
	sz := cfg.drill
	w := &drillWorkload{cfg: cfg, sz: sz, base: drillBase(cfg.seed, sz), family: drillFamily()}
	w.drillBody, _ = json.Marshal(map[string]any{
		"dataset": drillDataset, "constraints": w.family, "k": sz.K, "workers": 1,
	})
	return w
}

func (w *drillWorkload) setup(rep int) error {
	dir := filepath.Join(w.cfg.dir, fmt.Sprintf("store-%d", rep))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	svc, err := startService(dir, server.Options{})
	if err != nil {
		return err
	}
	c := newClient(svc.base)
	defer c.close()
	fail := func(err error) error {
		svc.stop()
		return err
	}
	if _, err := c.must(http.MethodPost, "/v1/datasets?name="+drillDataset, w.base); err != nil {
		return fail(err)
	}
	for i, kind := range []string{"numeric", "categorical"} {
		body, _ := json.Marshal(map[string]any{"kind": kind, "alpha": monitorAlpha, "window": w.sz.Window})
		out, err := c.must(http.MethodPost, "/v1/monitors", body)
		if err != nil {
			return fail(err)
		}
		var info struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(out, &info); err != nil {
			return fail(err)
		}
		w.monitors[i] = info.ID
	}
	if _, err := c.must(http.MethodPost, "/v1/drilldown", w.drillBody); err != nil {
		return fail(err)
	}
	w.svc = svc
	return nil
}

func (w *drillWorkload) teardown() error {
	if w.svc == nil {
		return nil
	}
	err := w.svc.stop()
	w.svc = nil
	return err
}

func (w *drillWorkload) recordsPath(i int) string {
	return fmt.Sprintf("/v1/monitors/%d/records", w.monitors[i%2])
}

func recordsBody(b recordBatch) []byte {
	var body []byte
	if b.numeric {
		body, _ = json.Marshal(map[string][]float64{"x": b.xf, "y": b.yf})
	} else {
		body, _ = json.Marshal(map[string][]string{"x": b.xs, "y": b.ys})
	}
	return body
}

// drillLoad is what one timed run of the two closed loops observed.
type drillLoad struct {
	drills    []time.Duration
	batches   []time.Duration
	hashes    map[uint64]int
	acked     int // record batches acknowledged, in send order from 0
	records   int
	failed    int
	attempted int
	failures  []string
}

func (w *drillWorkload) load(d time.Duration, hashSeed maphash.Seed, spans *recorder) *drillLoad {
	c := newClient(w.svc.base)
	defer c.close()
	out := &drillLoad{hashes: make(map[uint64]int)}
	var mu sync.Mutex
	fail := func(what string) {
		mu.Lock()
		out.failed++
		if len(out.failures) < 5 {
			out.failures = append(out.failures, what)
		}
		mu.Unlock()
	}
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var h maphash.Hash
		h.SetSeed(hashSeed)
		for req := 0; time.Now().Before(deadline); req++ {
			t0 := time.Now()
			span := spans.begin("client.drilldown", 0, req)
			code, body, err := c.do(http.MethodPost, "/v1/drilldown", w.drillBody)
			spans.end(span)
			out.drills = append(out.drills, time.Since(t0))
			switch {
			case err != nil:
				fail(fmt.Sprintf("drilldown: %v", err))
			case code != http.StatusOK:
				fail(fmt.Sprintf("drilldown: HTTP %d: %s", code, bytes.TrimSpace(body)))
			default:
				h.Reset()
				h.Write(body)
				out.hashes[h.Sum64()]++
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			body := recordsBody(makeRecordBatch(w.cfg.seed, w.sz, i))
			t0 := time.Now()
			span := spans.begin("client.records", 0, i)
			code, resp, err := c.do(http.MethodPost, w.recordsPath(i), body)
			spans.end(span)
			out.batches = append(out.batches, time.Since(t0))
			switch {
			case err != nil:
				fail(fmt.Sprintf("records %d: %v", i, err))
			case code != http.StatusOK:
				fail(fmt.Sprintf("records %d: HTTP %d: %s", i, code, bytes.TrimSpace(resp)))
			default:
				out.acked = i + 1
				out.records += w.sz.BatchRecords
			}
		}
	}()
	wg.Wait()
	out.attempted = len(out.drills) + len(out.batches)
	return out
}

// verify checks the run's answers outside the timed region: every drill
// answer against a direct drilldown.MultiTopKContext on the benchmark's own
// copy of the dataset, and each monitor's verdict against an offline replay
// of exactly the batches it acknowledged.
func (w *drillWorkload) verify(ld *drillLoad, hashSeed maphash.Seed) (mismatches []string, bad int, err error) {
	rel, err := relation.ReadCSV(bytes.NewReader(w.base))
	if err != nil {
		return nil, 0, err
	}
	fam := make([]sc.SC, len(w.family))
	for i, text := range w.family {
		if fam[i], err = sc.Parse(text); err != nil {
			return nil, 0, err
		}
	}
	want, err := drilldown.MultiTopKContext(context.Background(), rel, fam, w.sz.K, drilldown.Options{})
	if err != nil {
		return nil, 0, err
	}
	c := newClient(w.svc.base)
	defer c.close()
	// The dataset never changes in this workload, so every drill answer must
	// hash like one freshly fetched answer, whose rows the oracle checks.
	body, err := c.must(http.MethodPost, "/v1/drilldown", w.drillBody)
	if err != nil {
		return nil, 0, err
	}
	var got struct {
		Rows []int `json:"rows"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return nil, 0, err
	}
	var h maphash.Hash
	h.SetSeed(hashSeed)
	h.Write(body)
	rowsOK := slices.Equal(got.Rows, want)
	if !rowsOK {
		mismatches = append(mismatches, fmt.Sprintf("drill rows %v, oracle %v", head(got.Rows), head(want)))
	}
	for hash, n := range ld.hashes {
		switch {
		case hash != h.Sum64():
			mismatches = append(mismatches, fmt.Sprintf("%d drill answers differ from the oracle-checked answer", n))
			bad += n
		case !rowsOK:
			bad += n
		}
	}

	num, err := stream.NewNumericMonitor(monitorAlpha, false, w.sz.Window)
	if err != nil {
		return nil, 0, err
	}
	cat, err := stream.NewCategoricalMonitor(monitorAlpha, false, w.sz.Window)
	if err != nil {
		return nil, 0, err
	}
	ctx := context.Background()
	for i := 0; i < ld.acked; i++ {
		b := makeRecordBatch(w.cfg.seed, w.sz, i)
		if b.numeric {
			_, err = num.InsertBatch(ctx, b.xf, b.yf)
		} else {
			_, err = cat.InsertBatch(ctx, b.xs, b.ys)
		}
		if err != nil {
			return nil, 0, err
		}
	}
	for i, v := range []stream.Verdict{num.Verdict(), cat.Verdict()} {
		out, err := c.must(http.MethodGet, fmt.Sprintf("/v1/monitors/%d/verdict", w.monitors[i]), nil)
		if err != nil {
			return nil, 0, err
		}
		var got struct {
			Statistic float64 `json:"statistic"`
			P         float64 `json:"p"`
			DF        int     `json:"df"`
			N         int     `json:"n"`
			Violated  bool    `json:"violated"`
		}
		if err := json.Unmarshal(out, &got); err != nil {
			return nil, 0, err
		}
		// The monitors promise their statistic within a 1e-12 differential
		// budget of a fresh computation, not bit-identity: a categorical
		// monitor re-anchors its running sums by ranging over Go maps, whose
		// order differs between processes, so two replays of the same
		// records can differ in the last bits. Compare within that budget,
		// with the thresholds internal/stream's differential tests pin.
		if math.Abs(got.Statistic-v.Statistic) > 1e-12*(1+math.Abs(v.Statistic)) ||
			math.Abs(got.P-v.P) > 1e-12 ||
			got.DF != v.DF || got.N != v.N || got.Violated != v.Violated {
			mismatches = append(mismatches, fmt.Sprintf("monitor %d verdict %+v, offline replay %+v", w.monitors[i], got, v))
			bad++
		}
	}
	return mismatches, bad, nil
}

func head(rows []int) []int {
	if len(rows) > 8 {
		return rows[:8]
	}
	return rows
}
