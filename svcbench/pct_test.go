package main

import (
	"testing"
	"time"
)

func ascending(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
		ok    bool
	}{
		{10, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		q, v, ok := highestTail(ascending(c.n))
		if ok != c.ok || q != c.wantQ {
			t.Errorf("n=%d: got p%g ok=%v, want p%g ok=%v", c.n, q, ok, c.wantQ, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if _, beyond := percentile(ascending(c.n), q); beyond < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, q, beyond)
		}
		if want, _ := percentile(ascending(c.n), q); v != want {
			t.Errorf("n=%d: value %v, want %v", c.n, v, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := ascending(100)
	for _, c := range []struct {
		q            float64
		value        float64
		beyondWanted int
	}{{50, 50, 50}, {90, 90, 10}, {95, 95, 5}, {100, 100, 0}} {
		v, beyond := percentile(s, c.q)
		if v != c.value || beyond != c.beyondWanted {
			t.Errorf("p%g = %v with %d beyond, want %v with %d", c.q, v, beyond, c.value, c.beyondWanted)
		}
	}
}

func TestSummarizeReportsCountAndFixedTail(t *testing.T) {
	ds := make([]time.Duration, 150)
	for i := range ds {
		ds[i] = time.Duration(len(ds)-i) * time.Millisecond // unsorted input
	}
	got := summarize(ds, 95)
	if got.N != 150 {
		t.Fatalf("N = %d, want 150", got.N)
	}
	if got.P50 != 75 || got.TailQ != 95 || got.Tail != 143 {
		t.Fatalf("p50 %v, p%g %v; want p50 75, p95 143", got.P50, got.TailQ, got.Tail)
	}
	if got.MaxQ != 90 {
		t.Fatalf("MaxQ = %v, want 90 (150 samples support p90, not p95)", got.MaxQ)
	}
	if note := tailNote(got); note == "" {
		t.Fatal("an unsupported p95 is not flagged")
	}
}
