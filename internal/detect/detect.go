// Package detect implements SCODED's violation-detection component
// (Algorithm 1 of the paper): given a dataset and an approximate SC
// ⟨φ, α⟩, compute the test statistic, its p-value under the null of
// independence, and decide whether the constraint is violated.
//
// Independence SCs are violated when p < α (the data shows significant
// dependence where independence was asserted). Dependence SCs invert the
// rule: they are violated when p >= α (the asserted dependence is absent),
// matching the paper's Nebraska case study where "p > 0.3 violates the
// dependence constraint".
//
// Conditional constraints X ⊥ Y | Z are tested by stratifying on the value
// of Z: per-stratum G statistics are summed (with their degrees of freedom),
// and per-stratum Kendall z-scores are combined by the weighted Stouffer
// rule. Set-valued X or Y are handled by the decomposition principle.
package detect

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
)

// Method selects the hypothesis-test statistic.
type Method int

const (
	// Auto picks G for categorical pairs, Kendall for numeric pairs, and
	// G-after-discretization for mixed pairs.
	Auto Method = iota
	// G uses the G-test (categorical; numeric columns are discretized).
	G
	// Kendall uses Kendall's tau-b with the Gaussian approximation
	// (numeric; categorical columns are rejected).
	Kendall
	// Pearson uses Pearson's r with the t reference distribution.
	Pearson
	// Spearman uses Spearman's rho with the t reference distribution.
	Spearman
	// ExactG uses a Monte-Carlo permutation G-test (for small samples).
	ExactG
	// ExactKendall uses a Monte-Carlo permutation tau test.
	ExactKendall
)

// String names the method.
func (m Method) String() string {
	switch m {
	case Auto:
		return "auto"
	case G:
		return "g-test"
	case Kendall:
		return "kendall"
	case Pearson:
		return "pearson"
	case Spearman:
		return "spearman"
	case ExactG:
		return "exact-g"
	case ExactKendall:
		return "exact-kendall"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures violation detection.
type Options struct {
	// Method selects the test statistic; Auto by default.
	Method Method
	// Bins is the number of quantile bins used to discretize numeric
	// columns for the G-test; defaults to 4.
	Bins int
	// MinStratumSize drops conditioning strata smaller than this from the
	// combined conditional test (the paper requires N_D(Z=z) to be
	// sufficiently large). Defaults to 5.
	MinStratumSize int
	// PermIters is the Monte-Carlo iteration count for exact tests;
	// defaults to 999.
	PermIters int
	// AutoExact re-runs a test with its Monte-Carlo exact variant whenever
	// the closed-form approximation is outside its validity regime
	// (expected counts below 5 for the G-test, n <= 60 for tau) — the
	// Section 4.3 fallback rule.
	AutoExact bool
	// Rng seeds the exact tests; defaults to a fixed seed for
	// reproducibility.
	Rng *rand.Rand
	// Cache, when non-nil, is a kernel.Cache bound to the dataset being
	// checked: column codings, conditioning partitions, contingency tables
	// and Kendall precomputations are read through (and memoized in) it, so
	// constraints sharing attributes or conditioning sets share one
	// computation. Results are bit-identical with or without a cache. The
	// cache must have been created on the same relation; Check rejects a
	// mismatched binding.
	Cache *kernel.Cache
}

func (o Options) withDefaults() Options {
	if o.Bins <= 1 {
		o.Bins = 4
	}
	if o.MinStratumSize <= 0 {
		o.MinStratumSize = 5
	}
	if o.PermIters <= 0 {
		o.PermIters = 999
	}
	// The default Rng is created only when a permutation test can actually
	// consume it: seeding a rand.Source costs ~5KB and a full seed pass, and
	// the closed-form methods never draw from it. The gate is exact — testPair
	// reads Rng only on the ExactG / ExactKendall methods and the AutoExact
	// re-run — and when the Rng is created it is the same source, seeded
	// identically and shared across all strata of the check, so exact-test
	// results are unchanged.
	if o.Rng == nil && (o.AutoExact || o.Method == ExactG || o.Method == ExactKendall) {
		o.Rng = rand.New(rand.NewSource(1))
	}
	return o
}

// StratumResult is the test outcome within one conditioning stratum Z = z.
type StratumResult struct {
	// Key identifies the stratum's Z assignment (display form).
	Key string
	// Size is the stratum's record count.
	Size int
	// Test is the within-stratum test result.
	Test stats.TestResult
	// Skipped is true when the stratum was too small to test.
	Skipped bool
}

// Result reports the outcome of checking one approximate SC.
type Result struct {
	// Constraint is the checked approximate SC.
	Constraint sc.Approximate
	// Method is the statistic actually used (after Auto resolution).
	Method Method
	// Test is the overall test result: for conditional constraints, the
	// combined over-strata result; for decomposed set constraints, the
	// Fisher combination over leaves.
	Test stats.TestResult
	// Violated is the Algorithm 1 decision.
	Violated bool
	// Strata holds per-stratum results for conditional constraints.
	Strata []StratumResult
	// Leaves holds per-leaf results when the constraint was decomposed.
	Leaves []Result
	// Err records why this constraint could not be checked when it is part
	// of a CheckAll family: a malformed constraint or one referencing a
	// missing column fails alone instead of aborting the whole batch. The
	// other Result fields are zero when Err is non-nil. Check itself still
	// reports failures through its error return.
	Err error
}

// Check runs Algorithm 1 with no deadline; see CheckContext.
func Check(d *relation.Relation, a sc.Approximate, opts Options) (Result, error) {
	return CheckContext(context.Background(), d, a, opts)
}

// CheckContext runs Algorithm 1: it computes the test statistic and p-value
// of the constraint on the dataset and reports whether the constraint is
// violated at the constraint's α. When ctx ends mid-check the error wraps
// the context's error (cancellation is observed between strata and leaves
// and inside the kernel cache, so a deadline interrupts a long conditional
// test without waiting for every stratum).
func CheckContext(ctx context.Context, d *relation.Relation, a sc.Approximate, opts Options) (Result, error) {
	if err := a.Validate(); err != nil {
		return Result{}, err
	}
	for _, col := range a.SC.Columns() {
		if !d.HasColumn(col) {
			return Result{}, fmt.Errorf("detect: dataset lacks column %q required by %s", col, a.SC)
		}
	}
	if opts.Cache != nil && opts.Cache.Relation() != d {
		return Result{}, fmt.Errorf("detect: kernel cache is bound to a different relation")
	}
	opts = opts.withDefaults()

	leaves := a.SC.Decompose()
	if len(leaves) == 1 {
		return checkSingle(ctx, d, sc.Approximate{SC: leaves[0], Alpha: a.Alpha}, opts)
	}

	// Set-valued constraint: test every leaf, then combine.
	leafResults := make([]Result, 0, len(leaves))
	for _, leaf := range leaves {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("detect: %w", err)
		}
		lr, err := checkSingle(ctx, d, sc.Approximate{SC: leaf, Alpha: a.Alpha}, opts)
		if err != nil {
			return Result{}, fmt.Errorf("detect: leaf %s: %w", leaf, err)
		}
		leafResults = append(leafResults, lr)
	}
	return combineLeaves(a, leafResults, d.NumRows())
}

// combineLeaves fuses the per-leaf results of a decomposed set constraint
// with Fisher's method and applies the set-level violation rule. Shared by
// the resident and streaming paths.
func combineLeaves(a sc.Approximate, leafResults []Result, rows int) (Result, error) {
	res := Result{Constraint: a, Leaves: leafResults}
	ps := make([]float64, 0, len(leafResults))
	allViolated, anyViolated := true, false
	for _, lr := range leafResults {
		res.Method = lr.Method
		ps = append(ps, lr.Test.P)
		if lr.Violated {
			anyViolated = true
		} else {
			allViolated = false
		}
	}
	stat, p, err := stats.FisherCombine(ps)
	if err != nil {
		return Result{}, err
	}
	res.Test = stats.TestResult{Statistic: stat, DF: 2 * len(ps), P: p, N: rows}
	if a.SC.Dependence {
		// A set DSC decomposes to a disjunction of leaf DSCs: it is violated
		// only when every leaf's asserted dependence is absent.
		res.Violated = allViolated
	} else {
		// A set ISC decomposes to a conjunction of leaf ISCs: violating any
		// leaf violates the constraint.
		res.Violated = anyViolated
	}
	return res, nil
}

// checkSingle handles a constraint with single-variable X and Y, possibly
// conditional.
func checkSingle(ctx context.Context, d *relation.Relation, a sc.Approximate, opts Options) (Result, error) {
	x, y := a.SC.X[0], a.SC.Y[0]
	method, err := resolveMethod(d, x, y, opts.Method)
	if err != nil {
		return Result{}, err
	}
	res := Result{Constraint: a, Method: method}

	if a.SC.IsMarginal() {
		tr, err := testPair(ctx, d, x, y, method, opts, nil, opts.Cache.AllRowsKey())
		if err != nil {
			return Result{}, err
		}
		res.Test = tr
	} else {
		tr, strata, err := testConditional(ctx, d, a.SC, method, opts)
		if err != nil {
			return Result{}, err
		}
		res.Test = tr
		res.Strata = strata
	}

	if a.SC.Dependence {
		res.Violated = res.Test.P >= a.Alpha
	} else {
		res.Violated = res.Test.P < a.Alpha
	}
	return res, nil
}

// resolveMethod turns Auto into a concrete method and validates that the
// requested method can handle the column kinds.
func resolveMethod(d *relation.Relation, x, y string, m Method) (Method, error) {
	return resolveMethodKinds(x, y, d.MustColumn(x).Kind, d.MustColumn(y).Kind, m)
}

// resolveMethodKinds is the kind-based core of resolveMethod, shared with
// the streaming path (which has no materialized relation, only the schema)
// so both paths resolve Auto — and reject kind mismatches — identically.
func resolveMethodKinds(x, y string, kx, ky relation.Kind, m Method) (Method, error) {
	bothNum := kx == relation.Numeric && ky == relation.Numeric
	switch m {
	case Auto:
		if bothNum {
			return Kendall, nil
		}
		// Categorical or mixed pairs go through the G-test (numeric columns
		// are quantile-discretized).
		return G, nil
	case Kendall, Pearson, Spearman, ExactKendall:
		if !bothNum {
			return 0, fmt.Errorf("detect: %s requires numeric columns, but %s is %s and %s is %s",
				m, x, kx, y, ky)
		}
		return m, nil
	case G, ExactG:
		// Any kinds allowed: numeric columns are discretized.
		return m, nil
	default:
		return 0, fmt.Errorf("detect: unknown method %d", int(m))
	}
}

// testConditional stratifies on Z and combines the per-stratum evidence.
// The partition — and, through the per-stratum rows keys, every stratum's
// codings and tables — is shared across constraints via the kernel cache.
func testConditional(ctx context.Context, d *relation.Relation, c sc.SC, method Method, opts Options) (stats.TestResult, []StratumResult, error) {
	part, err := opts.Cache.PartitionContext(ctx, d, c.Z)
	if err != nil {
		return stats.TestResult{}, nil, fmt.Errorf("detect: %w", err)
	}
	var strata []StratumResult
	comb := stratumCombiner{method: method}
	for _, k := range part.Keys {
		if err := ctx.Err(); err != nil {
			return stats.TestResult{}, nil, fmt.Errorf("detect: %w", err)
		}
		rows := part.Groups[k]
		sr := StratumResult{Key: displayKey(k), Size: len(rows)}
		if len(rows) < opts.MinStratumSize {
			sr.Skipped = true
			strata = append(strata, sr)
			continue
		}
		tr, err := testPair(ctx, d, c.X[0], c.Y[0], method, opts, rows, part.StratumRowsKey(k))
		if err != nil {
			return stats.TestResult{}, nil, fmt.Errorf("detect: stratum %s: %w", sr.Key, err)
		}
		sr.Test = tr
		strata = append(strata, sr)
		comb.add(tr, len(rows))
	}
	tr, err := comb.combine(d.NumRows())
	if err != nil {
		return stats.TestResult{}, nil, err
	}
	return tr, strata, nil
}

// stratumCombiner accumulates per-stratum test results and combines them
// into the conditional test: summed G evidence for the G family, weighted
// Stouffer z for the rank methods. The resident and streaming conditional
// paths share this one implementation so their combination arithmetic —
// including the z clamp and the all-strata-skipped fallback — cannot
// diverge.
type stratumCombiner struct {
	method Method
	gParts []stats.TestResult
	zs     []float64
	ns     []int
	total  int
}

// add records one tested (non-skipped) stratum of the given size.
func (c *stratumCombiner) add(tr stats.TestResult, size int) {
	c.total += size
	switch c.method {
	case G, ExactG:
		c.gParts = append(c.gParts, tr)
	default:
		// Recover a signed z-score from the two-sided p (sign does not
		// matter for Stouffer when strata independently show
		// dependence; we use |z| with sign from tau handled inside
		// testPair via the Statistic field carrying |tau|).
		z := stats.StdNormal.Quantile(1 - tr.P/2)
		// Quantile(1) is +Inf when a stratum's p underflows below
		// ~2.2e-16 (1 - p/2 rounds to exactly 1). Clamp to z = 40,
		// beyond the z of the smallest positive double (~38.6), so
		// StoufferZ — which rejects non-finite scores — still combines
		// the overwhelming evidence.
		if math.IsInf(z, 1) || z > 40 {
			z = 40
		}
		c.zs = append(c.zs, z)
		c.ns = append(c.ns, tr.N)
	}
}

// combine produces the over-strata test result; allRows is the dataset's
// total row count, reported as N when every stratum was skipped.
func (c *stratumCombiner) combine(allRows int) (stats.TestResult, error) {
	if c.total == 0 {
		// No stratum was large enough: no evidence of dependence.
		return stats.TestResult{P: 1, N: allRows}, nil
	}
	switch c.method {
	case G, ExactG:
		return stats.CombineG(c.gParts), nil
	default:
		z, p, err := stats.StoufferZ(c.zs, c.ns)
		if err != nil {
			return stats.TestResult{}, err
		}
		return stats.TestResult{Statistic: z, P: p, N: c.total}, nil
	}
}

func displayKey(k string) string {
	out := []rune(k)
	for i, r := range out {
		if r == '\x1f' {
			out[i] = ','
		}
	}
	return string(out)
}

// testPair runs the chosen statistic on one X/Y pair over the given rows
// (nil rows with rowsKey "" means the whole relation; stratum row sets carry
// their partition-derived rowsKey). All data preparation — codings, tables,
// float extraction, Kendall prep — goes through opts.Cache, which computes
// directly when nil. With AutoExact set, a result flagged Approximate is
// recomputed by the matching permutation test.
func testPair(ctx context.Context, d *relation.Relation, x, y string, method Method, opts Options, rows []int, rowsKey string) (stats.TestResult, error) {
	cache := opts.Cache
	switch method {
	case G, ExactG:
		if method == ExactG {
			xc, kx, err := cache.CodesContext(ctx, d, x, opts.Bins, rowsKey, rows)
			if err != nil {
				return stats.TestResult{}, err
			}
			yc, ky, err := cache.CodesContext(ctx, d, y, opts.Bins, rowsKey, rows)
			if err != nil {
				return stats.TestResult{}, err
			}
			return stats.PermutationGTest(xc, yc, kx, ky, opts.PermIters, opts.Rng)
		}
		t, _, _, err := cache.TableContext(ctx, d, x, y, opts.Bins, rowsKey, rows)
		if err != nil {
			return stats.TestResult{}, err
		}
		res, err := stats.GTest(t)
		if err == nil && opts.AutoExact && res.Approximate {
			xc, kx, cerr := cache.CodesContext(ctx, d, x, opts.Bins, rowsKey, rows)
			if cerr != nil {
				return stats.TestResult{}, cerr
			}
			yc, ky, cerr := cache.CodesContext(ctx, d, y, opts.Bins, rowsKey, rows)
			if cerr != nil {
				return stats.TestResult{}, cerr
			}
			return stats.PermutationGTest(xc, yc, kx, ky, opts.PermIters, opts.Rng)
		}
		return res, err
	case Kendall, ExactKendall, Pearson, Spearman:
		xv, err := cache.FloatsContext(ctx, d, x, rowsKey, rows)
		if err != nil {
			return stats.TestResult{}, err
		}
		yv, err := cache.FloatsContext(ctx, d, y, rowsKey, rows)
		if err != nil {
			return stats.TestResult{}, err
		}
		switch method {
		case Kendall:
			prep, err := cache.KendallPrepContext(ctx, d, x, y, rowsKey, rows)
			if err != nil {
				return stats.TestResult{}, err
			}
			res, err := stats.KendallTestPrepped(xv, yv, prep)
			if err == nil && opts.AutoExact && res.Approximate {
				return stats.PermutationKendallTest(xv, yv, opts.PermIters, opts.Rng)
			}
			return res, err
		case ExactKendall:
			return stats.PermutationKendallTest(xv, yv, opts.PermIters, opts.Rng)
		case Pearson:
			return stats.PearsonTest(xv, yv)
		default:
			return stats.SpearmanTest(xv, yv)
		}
	default:
		return stats.TestResult{}, fmt.Errorf("detect: unsupported method %s", method)
	}
}
