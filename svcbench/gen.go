package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
)

// The benchmark's own seeded generator. Every input the service receives —
// the uploaded CSV, each append batch, each monitor record batch — is a pure
// function of (seed, sizes, index), so a run can regenerate any batch for
// its offline oracle without keeping it, and two runs with one seed send
// byte-identical inputs.

// checkallSizes shapes the checkall workloads' dataset.
type checkallSizes struct {
	Rows       int `json:"rows"`
	Regions    int `json:"regions"`
	CatCols    int `json:"categorical_columns"`
	Levels     int `json:"levels"`
	NumCols    int `json:"numeric_columns"`
	AppendRows int `json:"append_rows"`
	// AppendsPerSec is the open-loop append rate.
	AppendsPerSec float64 `json:"appends_per_sec"`
}

// drillSizes shapes the drill_ingest workload.
type drillSizes struct {
	Rows         int `json:"rows"`
	Strata       int `json:"strata"`
	Levels       int `json:"levels"`
	K            int `json:"k"`
	BatchRecords int `json:"batch_records"`
	Window       int `json:"window"`
}

var defaultCheckall = checkallSizes{
	Rows: 20000, Regions: 12, CatCols: 7, Levels: 8, NumCols: 3,
	AppendRows: 10, AppendsPerSec: 10,
}

var defaultDrill = drillSizes{
	Rows: 8000, Strata: 16, Levels: 8, K: 50, BatchRecords: 500, Window: 10000,
}

// subRNG derives an independent deterministic stream for one indexed input
// of one kind, so batch i never depends on how many batches were drawn
// before it.
func subRNG(seed int64, kind, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(kind)*7_919 + int64(i)))
}

const (
	kindBase = iota
	kindAppend
	kindDrill
	kindRecords
)

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// checkallHeader is the CSV header of the checkall dataset.
func checkallHeader(sz checkallSizes) []string {
	h := []string{"Region"}
	for c := 1; c <= sz.CatCols; c++ {
		h = append(h, fmt.Sprintf("C%d", c))
	}
	for c := 1; c <= sz.NumCols; c++ {
		h = append(h, fmt.Sprintf("N%d", c))
	}
	return h
}

// writeCheckallRows appends n generated rows to buf. region < 0 draws each
// row's region; otherwise every row lands in that one stratum. Planted
// dependence: C2 copies C1 for a third of the rows, C4 copies C3 for a tenth
// in even regions, N2 tracks N1; everything else is independent noise, so
// the family has both violated and holding constraints.
func writeCheckallRows(buf *bytes.Buffer, rng *rand.Rand, sz checkallSizes, n, region int) {
	cats := make([]int, sz.CatCols)
	nums := make([]float64, sz.NumCols)
	for i := 0; i < n; i++ {
		r := region
		if r < 0 {
			r = rng.Intn(sz.Regions)
		}
		for c := range cats {
			cats[c] = rng.Intn(sz.Levels)
		}
		if sz.CatCols >= 2 && rng.Float64() < 1.0/3 {
			cats[1] = cats[0]
		}
		if sz.CatCols >= 4 && r%2 == 0 && rng.Float64() < 0.1 {
			cats[3] = cats[2]
		}
		for c := range nums {
			nums[c] = rng.NormFloat64()
		}
		if sz.NumCols >= 2 {
			nums[1] = 0.3*nums[0] + rng.NormFloat64()
		}
		fmt.Fprintf(buf, "g%d", r)
		for c, v := range cats {
			fmt.Fprintf(buf, ",c%d_%d", c+1, v)
		}
		for _, v := range nums {
			buf.WriteByte(',')
			buf.WriteString(fmtNum(v))
		}
		buf.WriteByte('\n')
	}
}

func writeHeader(buf *bytes.Buffer, header []string) {
	for i, h := range header {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(h)
	}
	buf.WriteByte('\n')
}

// checkallBase is the uploaded dataset: header plus sz.Rows rows.
func checkallBase(seed int64, sz checkallSizes) []byte {
	var buf bytes.Buffer
	writeHeader(&buf, checkallHeader(sz))
	writeCheckallRows(&buf, subRNG(seed, kindBase, 0), sz, sz.Rows, -1)
	return buf.Bytes()
}

// appendBatch is the i-th append: header plus sz.AppendRows rows, all in one
// region drawn from the batch's own stream.
func appendBatch(seed int64, sz checkallSizes, i int) []byte {
	rng := subRNG(seed, kindAppend, i)
	var buf bytes.Buffer
	writeHeader(&buf, checkallHeader(sz))
	writeCheckallRows(&buf, rng, sz, sz.AppendRows, rng.Intn(sz.Regions))
	return buf.Bytes()
}

// appendRowsOnly strips the header line from an append batch, for building
// the oracle's concatenated copy of a data version.
func appendRowsOnly(batch []byte) []byte {
	i := bytes.IndexByte(batch, '\n')
	return batch[i+1:]
}

// checkallFamily is every categorical pair plus every numeric pair, each
// conditioned on Region: G-tests for the categorical pairs, Kendall's tau
// for the numeric ones.
func checkallFamily(sz checkallSizes) []string {
	var fam []string
	for i := 1; i <= sz.CatCols; i++ {
		for j := i + 1; j <= sz.CatCols; j++ {
			fam = append(fam, fmt.Sprintf("C%d _||_ C%d | Region @ 0.05", i, j))
		}
	}
	for i := 1; i <= sz.NumCols; i++ {
		for j := i + 1; j <= sz.NumCols; j++ {
			fam = append(fam, fmt.Sprintf("N%d _||_ N%d | Region @ 0.05", i, j))
		}
	}
	return fam
}

// drillBase is the drill-down dataset: Region strata, numeric X, Y, W, V
// (Y and W rank-aligned with X on every tenth row) and categorical A, B
// (B copies A for a quarter of the rows).
func drillBase(seed int64, sz drillSizes) []byte {
	rng := subRNG(seed, kindDrill, 0)
	var buf bytes.Buffer
	writeHeader(&buf, []string{"Region", "X", "Y", "W", "V", "A", "B"})
	for i := 0; i < sz.Rows; i++ {
		x, y, w, v := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		if i%10 == 0 {
			y = x + 0.1*rng.NormFloat64()
			w = x + 0.1*rng.NormFloat64()
		}
		a, b := rng.Intn(sz.Levels), rng.Intn(sz.Levels)
		if rng.Float64() < 0.25 {
			b = a
		}
		fmt.Fprintf(&buf, "r%d,%s,%s,%s,%s,a%d,b%d\n", rng.Intn(sz.Strata),
			fmtNum(x), fmtNum(y), fmtNum(w), fmtNum(v), a, b)
	}
	return buf.Bytes()
}

// drillFamily is two tau constraints and two G constraints (one categorical
// pair, one mixed pair discretized into bins).
func drillFamily() []string {
	return []string{
		"X _||_ Y | Region",
		"X _||_ W | Region",
		"A _||_ B | Region",
		"B _||_ V | Region",
	}
}

// recordBatch is the i-th monitor batch. Even batches go to the numeric
// monitor (float pairs with weak dependence), odd ones to the categorical
// monitor (level pairs, equal for a tenth of the records).
type recordBatch struct {
	numeric bool
	xf, yf  []float64
	xs, ys  []string
}

func makeRecordBatch(seed int64, sz drillSizes, i int) recordBatch {
	rng := subRNG(seed, kindRecords, i)
	b := recordBatch{numeric: i%2 == 0}
	if b.numeric {
		b.xf = make([]float64, sz.BatchRecords)
		b.yf = make([]float64, sz.BatchRecords)
		for j := range b.xf {
			b.xf[j] = rng.NormFloat64()
			b.yf[j] = 0.05*b.xf[j] + rng.NormFloat64()
		}
		return b
	}
	b.xs = make([]string, sz.BatchRecords)
	b.ys = make([]string, sz.BatchRecords)
	for j := range b.xs {
		x, y := rng.Intn(sz.Levels), rng.Intn(sz.Levels)
		if rng.Float64() < 0.1 {
			y = x
		}
		b.xs[j] = "x" + strconv.Itoa(x)
		b.ys[j] = "y" + strconv.Itoa(y)
	}
	return b
}
