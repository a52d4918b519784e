package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"scoded/internal/server"
	"scoded/internal/store"
)

// service is one in-process scoded-serve: the real handler stack on a real
// loopback listener over a real store directory.
type service struct {
	st   *store.Store
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
}

// startService opens the store at dir, restores it (cold, from manifests)
// and serves on an ephemeral loopback port.
func startService(dir string, opts server.Options) (*service, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	opts.Store = st
	srv := server.New(opts)
	if err := srv.LoadStore(); err != nil {
		srv.Close()
		return nil, fmt.Errorf("restoring store: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{
		st: st, srv: srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the HTTP server, waits for its accept loop to exit and stops
// the alert sink.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	return err
}

// client talks to one service over at most two connections: one per load
// role, so no role queues behind the other's connection.
type client struct {
	tr   *http.Transport
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}
	return &client{tr: tr, hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// must sends a set-up request, failing unless the status is 2xx.
func (c *client) must(method, path string, body []byte) ([]byte, error) {
	code, out, err := c.do(method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, code, bytes.TrimSpace(out))
	}
	return out, nil
}

// scrape reads one unlabelled sample from the service's /metrics page.
func (c *client) scrape(name string) (float64, error) {
	out, err := c.must(http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(out), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not on /metrics", name)
}

// heapSampler records the post-GC live heap every interval until stopped.
type heapSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []float64 // MB
}

func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.samples = append(h.samples, float64(s[0].Value.Uint64())/(1<<20))
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the median live heap in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	return medianFloat(h.samples)
}

// datasetStoreBytes is the on-disk segment bytes of one stored dataset.
func datasetStoreBytes(st *store.Store, name string) (int64, error) {
	m, err := st.Manifest(name)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, seg := range m.Segments {
		total += seg.Bytes
	}
	return total, nil
}
