package detect

import (
	"context"
	"fmt"

	"scoded/internal/kernel"
	"scoded/internal/sc"
	"scoded/internal/stats"
)

// The streaming detection path (DESIGN.md section 16): CheckAllStream runs
// the same Algorithm 1 decisions as CheckAllContext, but sources its
// statistics from a kernel.Streamer — per-segment sufficient statistics
// merged across store chunks — instead of a materialized relation. Results
// are bit-identical to the in-memory path for every supported method: the
// partials reproduce the exact integers, coding order, and float
// arithmetic of the resident kernels (pinned by TestCheckAllStreamIdentity
// and the stats partial property tests).
//
// The streaming path is deliberately narrower than the resident one. The
// permutation tests (ExactG, ExactKendall, and the AutoExact fallback)
// need full per-stratum row vectors and a shared deterministic Rng, and
// Pearson/Spearman need whole-column float vectors in row order; those
// stay resident-only. StreamEligible gates the choice so callers fall
// back to materialization rather than silently changing statistics.

// StreamEligible reports whether a family run with opts can take the
// streaming path: closed-form G and Kendall (or Auto, which resolves to
// one of them) without the AutoExact permutation fallback.
func StreamEligible(opts Options) bool {
	if opts.AutoExact {
		return false
	}
	switch opts.Method {
	case Auto, G, Kendall:
		return true
	default:
		return false
	}
}

// CheckAllStream checks a family of approximate SCs against a streamed
// dataset. The result slice is element-for-element identical (same
// ordering, same Err wrapping, same FDR post-pass) to CheckAllContext on
// the materialized relation.
//
// The whole family costs one scan of the store: every constraint is
// validated and decomposed up front, leaves shared by several
// constraints are folded once, and one kernel.Streamer.Run accumulates
// every leaf's per-stratum statistics in a single pass. A constraint that
// fails set-up (malformed, missing column, wrong kinds for its method, a
// non-stream-eligible method) reports that error alone and takes no part
// in the scan. Every other constraint finishes with the scan: if ctx ends
// or the scan fails before the last chunk, each of them reports an Err
// wrapping that error and none keeps a partial result. Once the scan
// completes, the per-stratum tests run to completion.
func CheckAllStream(ctx context.Context, st *kernel.Streamer, as []sc.Approximate, opts BatchOptions) ([]Result, error) {
	if opts.FDR < 0 || opts.FDR > 1 {
		return nil, fmt.Errorf("detect: FDR level %v out of [0,1]", opts.FDR)
	}
	o := opts.Options.withDefaults()
	results := make([]Result, len(as))
	plans := make([]constraintPlan, len(as))
	var jobs []kernel.StreamJob
	index := make(map[string]int)
	for i, a := range as {
		p, err := planConstraint(st, a, opts.Options)
		if err != nil {
			results[i] = Result{Constraint: a, Err: fmt.Errorf("constraint %d (%s): %w", i, a.SC, err)}
			continue
		}
		for k, leaf := range p.leaves {
			job := kernel.StreamJob{Z: leaf.SC.Z, X: leaf.SC.X[0], Y: leaf.SC.Y[0], Kendall: p.methods[k] == Kendall}
			if !job.Kendall {
				job.Bins = o.Bins
			}
			key := fmt.Sprintf("%q %q %q %t %d", job.Z, job.X, job.Y, job.Kendall, job.Bins)
			id, ok := index[key]
			if !ok {
				id = len(jobs)
				index[key] = id
				jobs = append(jobs, job)
			}
			p.jobs = append(p.jobs, id)
		}
		plans[i] = p
	}
	var sres []*kernel.StreamResult
	var scanErr error
	if len(jobs) > 0 {
		sres, scanErr = st.Run(ctx, jobs)
	}
	for i, a := range as {
		if results[i].Err != nil {
			continue
		}
		var r Result
		err := scanErr
		if err != nil {
			err = fmt.Errorf("detect: %w", err)
		} else {
			r, err = plans[i].check(a, sres, st.Rows(), o)
		}
		if err != nil {
			r = Result{Constraint: a, Err: fmt.Errorf("constraint %d (%s): %w", i, a.SC, err)}
		}
		results[i] = r
	}
	if opts.FDR <= 0 {
		return results, nil
	}
	if err := applyFDR(results, opts.FDR); err != nil {
		return nil, err
	}
	return results, nil
}

// constraintPlan is one constraint's part of a streamed family: its leaves in
// decomposition order, each leaf's resolved method and scan job, and the
// error the resident path would hit at leaf len(leaves) when a leaf's
// method cannot be resolved. The resident path tests leaves in order and
// stops at the first error, so the leaves before a resolution failure
// still run and their errors take precedence.
type constraintPlan struct {
	decomposed bool
	leaves     []sc.Approximate
	methods    []Method
	jobs       []int
	resolveErr error
}

// planConstraint mirrors CheckContext's set-up over a streamed source.
func planConstraint(st *kernel.Streamer, a sc.Approximate, opts Options) (constraintPlan, error) {
	if err := a.Validate(); err != nil {
		return constraintPlan{}, err
	}
	for _, col := range a.SC.Columns() {
		if _, ok := st.ColumnKind(col); !ok {
			return constraintPlan{}, fmt.Errorf("detect: dataset lacks column %q required by %s", col, a.SC)
		}
	}
	if !StreamEligible(opts) {
		return constraintPlan{}, fmt.Errorf("detect: method %s is not stream-eligible", opts.Method)
	}
	leaves := a.SC.Decompose()
	p := constraintPlan{decomposed: len(leaves) > 1}
	for _, leaf := range leaves {
		x, y := leaf.X[0], leaf.Y[0]
		kx, _ := st.ColumnKind(x)
		ky, _ := st.ColumnKind(y)
		method, err := resolveMethodKinds(x, y, kx, ky, opts.Method)
		if err != nil {
			if !p.decomposed {
				return constraintPlan{}, err
			}
			p.resolveErr = fmt.Errorf("detect: leaf %s: %w", leaf, err)
			break
		}
		p.leaves = append(p.leaves, sc.Approximate{SC: leaf, Alpha: a.Alpha})
		p.methods = append(p.methods, method)
	}
	return p, nil
}

// check tests every leaf from its scan results and combines them exactly
// as CheckContext does.
func (p *constraintPlan) check(a sc.Approximate, sres []*kernel.StreamResult, rows int, opts Options) (Result, error) {
	if !p.decomposed {
		return checkSingleStream(p.leaves[0], p.methods[0], sres[p.jobs[0]], rows, opts)
	}
	leafResults := make([]Result, 0, len(p.leaves))
	for k, leaf := range p.leaves {
		lr, err := checkSingleStream(leaf, p.methods[k], sres[p.jobs[k]], rows, opts)
		if err != nil {
			return Result{}, fmt.Errorf("detect: leaf %s: %w", leaf.SC, err)
		}
		leafResults = append(leafResults, lr)
	}
	if p.resolveErr != nil {
		return Result{}, p.resolveErr
	}
	return combineLeaves(a, leafResults, rows)
}

// checkSingleStream mirrors checkSingle: one leaf's accumulated per-stratum
// statistics are tested, then the shared stratumCombiner fuses them exactly
// as the resident conditional path does.
func checkSingleStream(a sc.Approximate, method Method, sres *kernel.StreamResult, rows int, opts Options) (Result, error) {
	res := Result{Constraint: a, Method: method}
	if a.SC.IsMarginal() {
		var stratum kernel.StreamStratum
		if len(sres.Strata) > 0 {
			stratum = sres.Strata[0]
		} else {
			// Zero-row dataset: synthesize the empty stratum so the test
			// errors exactly like the resident path's empty-input errors.
			stratum.Kendall = stats.NewKendallPartial()
		}
		tr, err := streamStratumTest(stratum, method)
		if err != nil {
			return Result{}, err
		}
		res.Test = tr
	} else {
		var strata []StratumResult
		comb := stratumCombiner{method: method}
		for k, stratum := range sres.Strata {
			sr := StratumResult{Key: displayKey(sres.Keys[k]), Size: stratum.Size}
			if stratum.Size < opts.MinStratumSize {
				sr.Skipped = true
				strata = append(strata, sr)
				continue
			}
			tr, err := streamStratumTest(stratum, method)
			if err != nil {
				return Result{}, fmt.Errorf("detect: stratum %s: %w", sr.Key, err)
			}
			sr.Test = tr
			strata = append(strata, sr)
			comb.add(tr, stratum.Size)
		}
		tr, err := comb.combine(rows)
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

// streamStratumTest evaluates one stratum's accumulated statistic.
func streamStratumTest(stratum kernel.StreamStratum, method Method) (stats.TestResult, error) {
	if method == Kendall {
		return stratum.Kendall.Test()
	}
	return stats.GTest(stratum.Table)
}
