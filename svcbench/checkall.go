package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"scoded/internal/detect"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/server"
)

const (
	checkallDataset = "ck"
	familyFDR       = 0.05
	// checkallBody asks for one engine worker, leaving the second CPU to the
	// write role (see README.md).
	checkallBody = `{"dataset":"ck","fdr":0.05,"workers":1}`
)

// checkallWorkload drives the checkall workloads: one closed-loop
// /v1/checkall client over the whole registry beside an open-loop
// single-stratum append schedule on the same dataset.
type checkallWorkload struct {
	cfg config
	sz  checkallSizes
	// stream reboots the service cold under a budget below the dataset's
	// size. It also keeps appends and checkalls from overlapping: a due
	// append waits for the checkall in flight, and no checkall starts while
	// an append is in flight. A streamed checkall fixes the row count from
	// the manifest once but re-reads the manifest on every per-constraint
	// store pass, so an append landing during the request errors every
	// constraint after it (see README.md).
	stream bool
	base   []byte
	family []string
	svc    *service
}

func newCheckallWorkload(cfg config) *checkallWorkload {
	sz := cfg.checkall
	return &checkallWorkload{
		cfg: cfg, sz: sz, stream: cfg.workload == "checkall_stream",
		base:   checkallBase(cfg.seed, sz),
		family: checkallFamily(sz),
	}
}

// setup builds one fresh service in its own store directory: upload,
// constraint registration and, for the streamed variant, a cold reboot
// under a resident budget of half the dataset's on-disk size. Warm-up
// checkalls fill the kernel cache (resident) or the page cache (stream).
func (w *checkallWorkload) setup(rep int) error {
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
	if _, err := c.must(http.MethodPost, "/v1/datasets?name="+checkallDataset, w.base); err != nil {
		svc.stop()
		return err
	}
	for _, text := range w.family {
		body, _ := json.Marshal(map[string]string{"constraint": text})
		if _, err := c.must(http.MethodPost, "/v1/constraints", body); err != nil {
			svc.stop()
			return err
		}
	}
	if w.stream {
		disk, err := datasetStoreBytes(svc.st, checkallDataset)
		if err != nil {
			svc.stop()
			return err
		}
		if err := svc.stop(); err != nil {
			return err
		}
		svc, err = startService(dir, server.Options{ResidentBytes: disk / 2})
		if err != nil {
			return err
		}
		c.close()
		c = newClient(svc.base)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.must(http.MethodPost, "/v1/checkall", []byte(checkallBody)); err != nil {
			svc.stop()
			return err
		}
	}
	w.svc = svc
	return nil
}

func (w *checkallWorkload) teardown() error {
	if w.svc == nil {
		return nil
	}
	err := w.svc.stop()
	w.svc = nil
	return err
}

// answer is one checkall response, kept as a hash plus the range of data
// versions it may have been computed on: at least the appends acknowledged
// before it was sent, at most the appends sent before it returned.
type answer struct {
	hash   uint64
	lo, hi int
}

// checkallLoad is what one timed run of the two loops observed.
type checkallLoad struct {
	checkalls []time.Duration
	appends   []time.Duration // from each append's due time
	lags      []time.Duration // how late each append was sent
	// afterAppend counts the checkalls sent after an append was
	// acknowledged that no earlier checkall was sent after: on the resident
	// path, the ones that meet a kernel cache the append invalidated.
	afterAppend int
	answers     []answer
	errored     [][]byte // the first few answers with per-constraint errors
	nAppends    int
	lastAck     time.Duration // from run start to the last append's answer
	failed      int
	attempted   int
	failures    []string
}

// load runs the closed-loop checkall client and the open-loop appender for
// d. The append count is fixed by d and the rate, never by how fast the
// service answers, so every run grows the dataset by the same rows.
func (w *checkallWorkload) load(d time.Duration, hashSeed maphash.Seed, spans *recorder) *checkallLoad {
	c := newClient(w.svc.base)
	defer c.close()
	interval := time.Duration(float64(time.Second) / w.sz.AppendsPerSec)
	n := int(d / interval)
	batches := make([][]byte, n)
	for i := range batches {
		batches[i] = appendBatch(w.cfg.seed, w.sz, i)
	}
	var sent, acked atomic.Int64
	// gate is held per request when w.stream. A channel rather than a
	// sync.Mutex because blocked senders are served first-in first-out: a
	// due append runs right after the checkall in flight instead of losing
	// the lock to the checkall loop's next request.
	gate := make(chan struct{}, 1)
	lock := func() {
		if w.stream {
			gate <- struct{}{}
		}
	}
	unlock := func() {
		if w.stream {
			<-gate
		}
	}
	out := &checkallLoad{nAppends: n}
	var mu sync.Mutex
	fail := func(what string) {
		mu.Lock()
		out.failed++
		if len(out.failures) < 5 {
			out.failures = append(out.failures, what)
		}
		mu.Unlock()
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
			lock()
			sendAt := time.Now()
			sent.Add(1)
			span := spans.begin("client.append", 0, i)
			code, body, err := c.do(http.MethodPost, "/v1/datasets/"+checkallDataset+"/rows", batches[i])
			spans.end(span)
			done := time.Now()
			// Timed from the due time, so a stall delays the appends behind
			// it. Under the serializing gate the wait for the checkall in
			// flight is the harness's doing, not the service's: it shows in
			// the lag, and the latency starts at the send.
			from := due
			if w.stream {
				from = sendAt
			}
			out.appends = append(out.appends, done.Sub(from))
			out.lags = append(out.lags, sendAt.Sub(due))
			switch {
			case err != nil:
				fail(fmt.Sprintf("append %d: %v", i, err))
			case code/100 != 2:
				fail(fmt.Sprintf("append %d: HTTP %d: %s", i, code, bytes.TrimSpace(body)))
			default:
				acked.Add(1)
			}
			unlock()
			out.lastAck = done.Sub(start)
		}
	}()
	go func() {
		defer wg.Done()
		var h maphash.Hash
		h.SetSeed(hashSeed)
		prevLo := 0
		for req := 0; time.Now().Before(deadline); req++ {
			lock()
			lo := int(acked.Load())
			if lo > prevLo {
				out.afterAppend++
				prevLo = lo
			}
			t0 := time.Now()
			span := spans.begin("client.checkall", 0, req)
			code, body, err := c.do(http.MethodPost, "/v1/checkall", []byte(checkallBody))
			spans.end(span)
			out.checkalls = append(out.checkalls, time.Since(t0))
			hi := int(sent.Load())
			unlock()
			switch {
			case err != nil:
				fail(fmt.Sprintf("checkall: %v", err))
			case code != http.StatusOK:
				fail(fmt.Sprintf("checkall: HTTP %d: %s", code, bytes.TrimSpace(body)))
			default:
				h.Reset()
				h.Write(body)
				out.answers = append(out.answers, answer{hash: h.Sum64(), lo: lo, hi: hi})
				if len(out.errored) < 3 && !bytes.Contains(body, []byte(`"errored":0`)) {
					out.errored = append(out.errored, body)
				}
			}
		}
	}()
	wg.Wait()
	out.attempted = len(out.checkalls) + len(out.appends)
	return out
}

// checkallResp is the part of a /v1/checkall answer the oracle compares.
type checkallResp struct {
	Results []struct {
		Constraint string `json:"constraint"`
		Test       struct {
			Statistic float64 `json:"statistic"`
			P         float64 `json:"p"`
		} `json:"test"`
		Violated bool   `json:"violated"`
		Error    string `json:"error"`
	} `json:"results"`
}

// verify checks every answer of a run, outside the timed region. For each
// data version v (v appends applied) it renders the reference answer on an
// in-memory resident server and checks that reference, value for value,
// against detect.CheckAllContext on the benchmark's own copy of version v
// (bit-equal statistic and p, equal violated). Each timed answer must then
// be byte-identical to the reference answer of a version it may have seen,
// so streamed answers are held to the resident bytes.
func (w *checkallWorkload) verify(ld *checkallLoad, hashSeed maphash.Seed) (mismatches []string, bad int, err error) {
	ref := server.New(server.Options{})
	defer ref.Close()
	h := ref.Handler()
	call := func(method, path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	if code, out := call(http.MethodPost, "/v1/datasets?name="+checkallDataset, w.base); code/100 != 2 {
		return nil, 0, fmt.Errorf("reference upload: HTTP %d: %s", code, out)
	}
	fam := make([]sc.Approximate, len(w.family))
	for i, text := range w.family {
		body, _ := json.Marshal(map[string]string{"constraint": text})
		if code, out := call(http.MethodPost, "/v1/constraints", body); code/100 != 2 {
			return nil, 0, fmt.Errorf("reference constraint: HTTP %d: %s", code, out)
		}
		if fam[i], err = sc.ParseApproximate(text); err != nil {
			return nil, 0, err
		}
	}
	refHash := make([]uint64, ld.nAppends+1)
	refBody := make([][]byte, ld.nAppends+1)
	final := bytes.NewBuffer(append([]byte(nil), w.base...))
	var mh maphash.Hash
	mh.SetSeed(hashSeed)
	for v := 0; v <= ld.nAppends; v++ {
		code, body := call(http.MethodPost, "/v1/checkall", []byte(checkallBody))
		if code != http.StatusOK {
			return nil, 0, fmt.Errorf("reference checkall v%d: HTTP %d: %s", v, code, body)
		}
		mh.Reset()
		mh.Write(body)
		refHash[v], refBody[v] = mh.Sum64(), append([]byte(nil), body...)
		if v < ld.nAppends {
			batch := appendBatch(w.cfg.seed, w.sz, v)
			if code, out := call(http.MethodPost, "/v1/datasets/"+checkallDataset+"/rows", batch); code/100 != 2 {
				return nil, 0, fmt.Errorf("reference append %d: HTTP %d: %s", v, code, out)
			}
			final.Write(appendRowsOnly(batch))
		}
	}
	msgs, err := w.oracle(final.Bytes(), fam, refBody)
	if err != nil {
		return nil, 0, err
	}
	for v, msg := range msgs {
		if msg != "" {
			mismatches = append(mismatches, fmt.Sprintf("version %d: %s", v, msg))
			bad++
		}
	}
	badAnswers := 0
	for _, a := range ld.answers {
		ok := false
		for v := a.lo; v <= a.hi && v <= ld.nAppends; v++ {
			if refHash[v] == a.hash {
				ok = true
				break
			}
		}
		if !ok {
			badAnswers++
			if badAnswers <= 3 {
				mismatches = append(mismatches, fmt.Sprintf("answer seen between versions %d and %d matches no reference answer",
					a.lo, a.hi))
			}
		}
	}
	if badAnswers > 3 {
		mismatches = append(mismatches, fmt.Sprintf("%d of %d answers mismatched in all", badAnswers, len(ld.answers)))
	}
	for _, body := range ld.errored {
		mismatches = append(mismatches, erroredNote(body))
	}
	return mismatches, bad + badAnswers, nil
}

// erroredNote describes an answer whose constraints carry errors.
func erroredNote(body []byte) string {
	var r checkallResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Sprintf("undecodable answer: %v", err)
	}
	n, first := 0, ""
	for _, res := range r.Results {
		if res.Error != "" {
			if n == 0 {
				first = res.Error
			}
			n++
		}
	}
	return fmt.Sprintf("answer with %d of %d constraints errored, first: %s", n, len(r.Results), first)
}

// oracle checks each reference answer refBody[v] against
// detect.CheckAllContext on the benchmark's own copy of version v: the
// first rows of the final data, whose version v ends after the base rows
// plus v batches. Versions are checked on two goroutines.
func (w *checkallWorkload) oracle(finalCSV []byte, fam []sc.Approximate, refBody [][]byte) ([]string, error) {
	all, err := relation.ReadCSV(bytes.NewReader(finalCSV))
	if err != nil {
		return nil, err
	}
	type colData struct {
		name    string
		numeric bool
		strs    []string
		floats  []float64
	}
	var cols []colData
	for _, name := range all.Columns() {
		c := all.MustColumn(name)
		cd := colData{name: name, numeric: c.Kind == relation.Numeric}
		if cd.numeric {
			cd.floats = c.Floats()
		} else {
			cd.strs = make([]string, c.Len())
			for i := range cd.strs {
				cd.strs[i] = c.StringAt(i)
			}
		}
		cols = append(cols, cd)
	}
	baseRows := all.NumRows() - (len(refBody)-1)*w.sz.AppendRows
	msgs := make([]string, len(refBody))
	errs := make([]error, len(refBody))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int(next.Add(1) - 1); v < len(refBody); v = int(next.Add(1) - 1) {
				n := baseRows + v*w.sz.AppendRows
				built := make([]*relation.Column, len(cols))
				for j, c := range cols {
					if c.numeric {
						built[j] = relation.NewNumericColumn(c.name, c.floats[:n])
					} else {
						built[j] = relation.NewCategoricalColumn(c.name, c.strs[:n])
					}
				}
				rel, err := relation.New(built...)
				if err == nil {
					var want []detect.Result
					want, err = detect.CheckAllContext(context.Background(), rel, fam, detect.BatchOptions{FDR: familyFDR, Workers: 1})
					msgs[v] = compareCheckall(refBody[v], want)
				}
				errs[v] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return msgs, nil
}

// compareCheckall reports the first difference between a rendered answer
// and the oracle's results, or "".
func compareCheckall(body []byte, want []detect.Result) string {
	var got checkallResp
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Sprintf("decoding answer: %v", err)
	}
	if len(got.Results) != len(want) {
		return fmt.Sprintf("%d results, oracle has %d", len(got.Results), len(want))
	}
	for i, g := range got.Results {
		o := want[i]
		switch {
		case o.Err != nil || g.Error != "":
			return fmt.Sprintf("result %d errored: answer %q, oracle %v", i, g.Error, o.Err)
		case math.Float64bits(g.Test.Statistic) != math.Float64bits(o.Test.Statistic):
			return fmt.Sprintf("%s: statistic %v, oracle %v", g.Constraint, g.Test.Statistic, o.Test.Statistic)
		case math.Float64bits(g.Test.P) != math.Float64bits(o.Test.P):
			return fmt.Sprintf("%s: p %v, oracle %v", g.Constraint, g.Test.P, o.Test.P)
		case g.Violated != o.Violated:
			return fmt.Sprintf("%s: violated %v, oracle %v", g.Constraint, g.Violated, o.Violated)
		}
	}
	return ""
}

// checkNeverMaterialized asserts, from the service's own residency gauges,
// that the streamed workload never pulled the dataset into memory.
func (w *checkallWorkload) checkNeverMaterialized() []string {
	c := newClient(w.svc.base)
	defer c.close()
	var out []string
	for _, name := range []string{"scoded_resident_misses_total", "scoded_resident_relations", "scoded_resident_bytes"} {
		v, err := c.scrape(name)
		switch {
		case err != nil:
			out = append(out, err.Error())
		case v > 0:
			out = append(out, fmt.Sprintf("%s = %v: the streamed dataset was materialized", name, v))
		}
	}
	return out
}
