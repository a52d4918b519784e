package drilldown

import (
	"fmt"
	"sort"

	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/stats"
)

// The paper's drill-down workflow ends with a manual step: "The user can
// check whether these records follow a pattern" — in Figure 2 the flagged
// records are all (Toyota Prius, Black); in Figure 7 they all have GPM = 0
// and DraftYear < 2000. ExplainRows automates that reading: for every
// column it finds the values (or numeric bins) significantly over-
// represented among the flagged rows relative to the whole relation, scored
// by the hypergeometric tail probability of drawing that many occurrences
// in a sample of the flagged size.

// PatternFinding is one enriched value: "Column = Value appears in
// Support of the flagged rows vs. an expected baseline share".
type PatternFinding struct {
	// Column and Value identify the enriched pattern; numeric columns
	// report a quantile-bin label with its range.
	Column, Value string
	// Support is the number of flagged rows carrying the value.
	Support int
	// Flagged is the number of flagged rows considered.
	Flagged int
	// BaseRate is the value's share in the whole relation.
	BaseRate float64
	// P is the hypergeometric upper-tail probability of observing at
	// least Support occurrences in a uniformly drawn sample of Flagged
	// rows.
	P float64
}

// String renders "Model = Toyota Prius: 5/5 flagged vs 50% overall (p=...)".
func (f PatternFinding) String() string {
	return fmt.Sprintf("%s = %s: %d/%d flagged vs %.0f%% overall (p=%.2g)",
		f.Column, f.Value, f.Support, f.Flagged, 100*f.BaseRate, f.P)
}

// ExplainOptions configures ExplainRows.
type ExplainOptions struct {
	// MaxP caps the enrichment p-value of reported findings; defaults to
	// 0.01.
	MaxP float64
	// Bins is the quantile bin count for numeric columns; defaults to 4.
	Bins int
	// MinSupport drops findings carried by fewer flagged rows; defaults
	// to 2.
	MinSupport int
	// NoPairs disables joint two-column patterns (e.g. "Model = Toyota
	// Prius ∧ Color = Black", the Figure 2 observation). Pairs are scanned
	// when the relation has at most MaxPairColumns columns.
	NoPairs bool
	// MaxPairColumns bounds the pairwise scan; defaults to 8.
	MaxPairColumns int
}

func (o ExplainOptions) withDefaults() ExplainOptions {
	if o.MaxP <= 0 {
		o.MaxP = 0.01
	}
	if o.Bins <= 1 {
		o.Bins = 4
	}
	if o.MinSupport <= 0 {
		o.MinSupport = 2
	}
	if o.MaxPairColumns <= 0 {
		o.MaxPairColumns = 8
	}
	return o
}

// ExplainRows summarizes what the flagged rows have in common: per column,
// the values significantly enriched among them. Findings are sorted by
// ascending p-value (strongest pattern first).
func ExplainRows(d *relation.Relation, rows []int, opts ExplainOptions) ([]PatternFinding, error) {
	opts = opts.withDefaults()
	n := d.NumRows()
	if len(rows) == 0 {
		return nil, fmt.Errorf("drilldown: no rows to explain")
	}
	flagged := make(map[int]bool, len(rows))
	for _, r := range rows {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("drilldown: row %d out of range (n=%d)", r, n)
		}
		if flagged[r] {
			return nil, fmt.Errorf("drilldown: row %d flagged twice", r)
		}
		flagged[r] = true
	}

	// Precompute per-column codes and labels once.
	names := d.Columns()
	codes := make([][]int, len(names))
	labels := make([]map[int]string, len(names))
	for ci, name := range names {
		codes[ci], labels[ci] = columnValues(d, name, opts.Bins)
	}

	var out []PatternFinding
	scan := func(column string, values []int, label func(int) string) {
		total := make(map[int]int)
		hit := make(map[int]int)
		for i := 0; i < n; i++ {
			total[values[i]]++
			if flagged[i] {
				hit[values[i]]++
			}
		}
		for code, support := range hit {
			if support < opts.MinSupport {
				continue
			}
			k := total[code]
			// Upper tail: P(X >= support) drawing len(rows) without
			// replacement from n with k successes.
			dist := stats.Hypergeometric{N: n, K: k, Draws: len(rows)}
			p := 0.0
			for x := support; x <= len(rows) && x <= k; x++ {
				p += dist.PMF(x)
			}
			if p > opts.MaxP {
				continue
			}
			out = append(out, PatternFinding{
				Column:   column,
				Value:    label(code),
				Support:  support,
				Flagged:  len(rows),
				BaseRate: float64(k) / float64(n),
				P:        p,
			})
		}
	}

	for ci, name := range names {
		lab := labels[ci]
		scan(name, codes[ci], func(c int) string { return lab[c] })
	}

	// Joint two-column patterns, the Figure 2 style observation
	// ("all five records are Toyota Prius AND Black").
	if !opts.NoPairs && len(names) <= opts.MaxPairColumns {
		for a := 0; a < len(names); a++ {
			for b := a + 1; b < len(names); b++ {
				// Dense-encode the value pairs.
				pairCode := make(map[[2]int]int)
				joint := make([]int, n)
				for i := 0; i < n; i++ {
					key := [2]int{codes[a][i], codes[b][i]}
					c, ok := pairCode[key]
					if !ok {
						c = len(pairCode)
						pairCode[key] = c
					}
					joint[i] = c
				}
				back := make(map[int][2]int, len(pairCode))
				for key, c := range pairCode {
					back[c] = key
				}
				la, lb := labels[a], labels[b]
				scan(names[a]+" ∧ "+names[b], joint, func(c int) string {
					key := back[c]
					return la[key[0]] + " ∧ " + lb[key[1]]
				})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		//scoded:lint-ignore floatcmp comparator tie-break needs exact equality for a total order
		if out[i].P != out[j].P {
			return out[i].P < out[j].P
		}
		if out[i].Column != out[j].Column {
			return out[i].Column < out[j].Column
		}
		return out[i].Value < out[j].Value
	})
	return out, nil
}

// columnValues returns per-row dense codes and code display labels for any
// column; numeric columns are quantile-binned with range labels.
func columnValues(d *relation.Relation, name string, bins int) ([]int, map[int]string) {
	col := d.MustColumn(name)
	n := col.Len()
	if col.Kind == relation.Categorical {
		codes := make([]int, n)
		labels := make(map[int]string)
		for i := 0; i < n; i++ {
			codes[i] = col.Code(i)
			labels[codes[i]] = col.StringAt(i)
		}
		return codes, labels
	}
	vals := col.Floats()
	bins32, _ := kernel.DiscretizeQuantile(vals, bins)
	codes := make([]int, n)
	for i, c := range bins32 {
		codes[i] = int(c)
	}
	// Label each bin with its observed value range.
	type rng struct{ lo, hi float64 }
	ranges := make(map[int]*rng)
	for i, c := range codes {
		r, ok := ranges[c]
		if !ok {
			ranges[c] = &rng{lo: vals[i], hi: vals[i]}
			continue
		}
		if vals[i] < r.lo {
			r.lo = vals[i]
		}
		if vals[i] > r.hi {
			r.hi = vals[i]
		}
	}
	labels := make(map[int]string, len(ranges))
	for c, r := range ranges {
		//scoded:lint-ignore floatcmp lo and hi are copies of the same data value when the bin is a point
		if r.lo == r.hi {
			labels[c] = fmt.Sprintf("%g", r.lo)
		} else {
			labels[c] = fmt.Sprintf("[%g, %g]", r.lo, r.hi)
		}
	}
	return codes, labels
}
