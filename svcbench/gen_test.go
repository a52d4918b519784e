package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	ck, dr := defaultCheckall, defaultDrill
	for _, seed := range []int64{1, 7} {
		if !bytes.Equal(checkallBase(seed, ck), checkallBase(seed, ck)) {
			t.Fatalf("seed %d: checkall dataset differs between calls", seed)
		}
		if !bytes.Equal(drillBase(seed, dr), drillBase(seed, dr)) {
			t.Fatalf("seed %d: drill dataset differs between calls", seed)
		}
		for i := 0; i < 4; i++ {
			if !bytes.Equal(appendBatch(seed, ck, i), appendBatch(seed, ck, i)) {
				t.Fatalf("seed %d: append batch %d differs between calls", seed, i)
			}
			if !reflect.DeepEqual(makeRecordBatch(seed, dr, i), makeRecordBatch(seed, dr, i)) {
				t.Fatalf("seed %d: record batch %d differs between calls", seed, i)
			}
		}
	}
	if bytes.Equal(checkallBase(1, ck), checkallBase(2, ck)) {
		t.Fatal("seeds 1 and 2 gave the same checkall dataset")
	}
	if bytes.Equal(appendBatch(1, ck, 0), appendBatch(1, ck, 1)) {
		t.Fatal("append batches 0 and 1 are identical")
	}
}

func TestAppendBatchIsOneStratum(t *testing.T) {
	for i := 0; i < 10; i++ {
		lines := strings.Split(strings.TrimSpace(string(appendBatch(3, defaultCheckall, i))), "\n")
		if got := len(lines) - 1; got != defaultCheckall.AppendRows {
			t.Fatalf("batch %d has %d rows, want %d", i, got, defaultCheckall.AppendRows)
		}
		region := strings.SplitN(lines[1], ",", 2)[0]
		for _, l := range lines[2:] {
			if r := strings.SplitN(l, ",", 2)[0]; r != region {
				t.Fatalf("batch %d mixes regions %s and %s", i, region, r)
			}
		}
	}
}

func TestRecordBatchesAlternateMonitors(t *testing.T) {
	for i := 0; i < 4; i++ {
		b := makeRecordBatch(1, defaultDrill, i)
		if b.numeric != (i%2 == 0) {
			t.Fatalf("batch %d: numeric=%v", i, b.numeric)
		}
		n := len(b.xf) + len(b.xs)
		if n != defaultDrill.BatchRecords {
			t.Fatalf("batch %d has %d records, want %d", i, n, defaultDrill.BatchRecords)
		}
	}
}
