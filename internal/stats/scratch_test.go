package stats

import (
	"math/rand"
	"sync"
	"testing"
)

// The G kernel borrows scratch from a package-level sync.Pool; the prepped
// Kendall path reads only its prep. These tests pin what makes that safe:
// the pooled path is bit-identical to itself across reuse (nothing leaks
// between calls), and the steady state of both allocates nothing.

func TestGTestPooledScratchDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 2000
	x := make([]int32, n)
	y := make([]int32, n)
	for i := range x {
		x[i] = int32(rng.Intn(5))
		y[i] = int32(rng.Intn(7))
	}
	tab := TableFromCodes(x, y, 5, 7)
	first, err := GTest(tab)
	if err != nil {
		t.Fatal(err)
	}
	// Re-running must reproduce the statistic bit for bit: the pooled
	// marginal buffers are re-zeroed, and the fused accumulation order is
	// fixed row-major regardless of which pool object is handed back.
	for i := 0; i < 50; i++ {
		got, err := GTest(tab)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatalf("run %d: GTest diverged under scratch reuse: %+v vs %+v", i, got, first)
		}
	}
}

func TestGTestSteadyStateAllocFree(t *testing.T) {
	x := []int32{0, 1, 2, 0, 1, 2, 0, 1, 2, 1}
	y := []int32{0, 0, 1, 1, 2, 2, 0, 1, 2, 0}
	tab := TableFromCodes(x, y, 3, 3)
	GTest(tab) // warm the pool
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := GTest(tab); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("GTest allocates %.1f per call on a prebuilt table, want 0", allocs)
	}
}

func TestKendallSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 512
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	prep, err := PrepKendall(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := KendallPrepped(x, y, prep); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := KendallPrepped(x, y, prep); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("KendallPrepped allocates %.1f per call with a prep, want 0", allocs)
	}
}

// TestPooledKernelsConcurrent hammers both pooled kernels from many
// goroutines against per-goroutine expected values; with -race this fails
// loudly if scratch ever escapes a call or is shared between two borrowers.
func TestPooledKernelsConcurrent(t *testing.T) {
	const workers = 8
	type caseData struct {
		tab  Table
		x, y []float64
		g    TestResult
		k    KendallResult
		prep *KendallPrep
	}
	cases := make([]caseData, workers)
	for w := range cases {
		rng := rand.New(rand.NewSource(int64(100 + w)))
		n := 300 + 40*w
		xc := make([]int32, n)
		yc := make([]int32, n)
		xf := make([]float64, n)
		yf := make([]float64, n)
		for i := 0; i < n; i++ {
			xc[i] = int32(rng.Intn(4))
			yc[i] = int32(rng.Intn(6))
			xf[i] = rng.NormFloat64()
			yf[i] = rng.NormFloat64()
		}
		tab := TableFromCodes(xc, yc, 4, 6)
		g, err := GTest(tab)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := PrepKendall(xf, yf)
		if err != nil {
			t.Fatal(err)
		}
		k, err := KendallPrepped(xf, yf, prep)
		if err != nil {
			t.Fatal(err)
		}
		cases[w] = caseData{tab: tab, x: xf, y: yf, g: g, k: k, prep: prep}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(c caseData) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g, err := GTest(c.tab)
				if err != nil || g != c.g {
					t.Errorf("concurrent GTest diverged: %+v vs %+v (err %v)", g, c.g, err)
					return
				}
				k, err := KendallPrepped(c.x, c.y, c.prep)
				if err != nil || k != c.k {
					t.Errorf("concurrent Kendall diverged: %+v vs %+v (err %v)", k, c.k, err)
					return
				}
			}
		}(cases[w])
	}
	wg.Wait()
}
