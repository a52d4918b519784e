package experiments

import (
	"fmt"
	"math/rand"

	"scoded/internal/baselines/dboost"
	"scoded/internal/baselines/dcdetect"
	"scoded/internal/datasets"
	"scoded/internal/drilldown"
	"scoded/internal/errgen"
	"scoded/internal/eval"
	"scoded/internal/ic"
	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
)

// Figure10 reproduces the Boston dependence-SC experiment: the DSC N ⊥̸ D
// with the three error types (sorting, imputation, combination) injected
// into N at a moderate rate, F-score@K curves for SCODED (K strategy),
// DCDetect (the Table 3 monotone DC) and DBoost. Expected shape: SCODED
// far above both baselines, with sorting errors easier than imputation.
func Figure10(seed int64) (*Report, error) {
	return bostonExperiment(bostonConfig{
		id:        "F10",
		title:     "Figure 10: Boston dependence SC N ~||~ D by error type",
		sc:        sc.MustParse("N ~||~ D"),
		column:    "N",
		basedOn:   "", // random selection weakens the dependence
		rate:      0.3,
		strategy:  drilldown.K,
		withDC:    true,
		dc:        ic.MonotoneDC("D", "N"),
		seed:      seed,
		errorKind: []errgen.Kind{errgen.Sorting, errgen.Imputation, errgen.Combination},
	})
}

// Figure11 reproduces the Boston independence-SC experiment: the ISC R ⊥ B
// with errors injected into R based on column B (planting a dependence),
// F-score@K for SCODED (K^c strategy) and DBoost. DCDetect cannot express
// an independence constraint (Section 2.2) and is omitted, as in the paper.
func Figure11(seed int64) (*Report, error) {
	return bostonExperiment(bostonConfig{
		id:        "F11",
		title:     "Figure 11: Boston independence SC R _||_ B by error type",
		sc:        sc.MustParse("R _||_ B"),
		column:    "R",
		basedOn:   "B", // B-driven selection plants the dependence
		rate:      0.3,
		strategy:  drilldown.Kc,
		withDC:    false,
		seed:      seed,
		errorKind: []errgen.Kind{errgen.Sorting, errgen.Imputation, errgen.Combination},
	})
}

// Figure10Rates sweeps the error rate over the paper's 20-45% band for the
// Figure 10 dependence setting (sorting errors on N), reporting SCODED's
// mean F per rate — the "average error rate for the N column is moderate
// (20%-45%)" dimension of the paper's setup.
func Figure10Rates(seed int64) (*Report, error) {
	rep := &Report{ID: "F10r", Title: "Figure 10 rate sweep: N ~||~ D, sorting errors at 20-45%"}
	table := Table{Title: "SCODED mean F by error rate", Header: []string{"rate", "SCODED", "DCDetect", "DBoost"}}
	for _, rate := range []float64{0.20, 0.30, 0.45} {
		sub, err := bostonExperiment(bostonConfig{
			id:        "F10r",
			title:     "rate sweep",
			sc:        sc.MustParse("N ~||~ D"),
			column:    "N",
			rate:      rate,
			strategy:  drilldown.K,
			withDC:    true,
			dc:        ic.MonotoneDC("D", "N"),
			seed:      seed,
			errorKind: []errgen.Kind{errgen.Sorting},
		})
		if err != nil {
			return nil, err
		}
		var sco, dc, boost float64
		for _, s := range sub.Series {
			switch s.Name {
			case "sorting/SCODED":
				sco = seriesMeanY(s)
			case "sorting/DCDetect":
				dc = seriesMeanY(s)
			case "sorting/DBoost":
				boost = seriesMeanY(s)
			}
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%.0f%%", 100*rate), fmtF(sco), fmtF(dc), fmtF(boost),
		})
		rep.Notes = append(rep.Notes, fmt.Sprintf("rate %.0f%%: SCODED=%.3f DCDetect=%.3f DBoost=%.3f",
			100*rate, sco, dc, boost))
	}
	rep.Tables = append(rep.Tables, table)
	return rep, nil
}

// FigureConditional covers the Section 6.3 "Conditional SCs" paragraph: the
// conditional constraints TX ⊥̸ B | C and N ⊥ B | TX on Boston, which the
// paper reports behave like their marginal counterparts (no figure given).
func FigureConditional(seed int64) (*Report, error) {
	rep := &Report{ID: "F10c", Title: "Conditional SCs on Boston (Section 6.3)"}

	// Dependence: TX ~||~ B | C with random imputation on TX.
	depRep, err := bostonExperiment(bostonConfig{
		id:        "F10c-dep",
		title:     "TX ~||~ B | C",
		sc:        sc.MustParse("TX ~||~ B | C"),
		column:    "TX",
		basedOn:   "",
		rate:      0.3,
		strategy:  drilldown.K,
		withDC:    true,
		dc:        ic.ConditionalMonotoneDC("C", "TX", "B"),
		seed:      seed,
		errorKind: []errgen.Kind{errgen.Imputation},
		bins:      3,
	})
	if err != nil {
		return nil, err
	}
	// Independence: N _||_ B | TX with B-driven sorting on N.
	indRep, err := bostonExperiment(bostonConfig{
		id:        "F10c-ind",
		title:     "N _||_ B | TX",
		sc:        sc.MustParse("N _||_ B | TX"),
		column:    "N",
		basedOn:   "B",
		rate:      0.3,
		strategy:  drilldown.Kc,
		withDC:    false,
		seed:      seed,
		errorKind: []errgen.Kind{errgen.Sorting},
		bins:      3,
	})
	if err != nil {
		return nil, err
	}
	rep.Series = append(rep.Series, depRep.Series...)
	rep.Series = append(rep.Series, indRep.Series...)
	rep.Tables = append(rep.Tables, depRep.Tables...)
	rep.Tables = append(rep.Tables, indRep.Tables...)
	rep.Notes = append(rep.Notes, depRep.Notes...)
	rep.Notes = append(rep.Notes, indRep.Notes...)
	return rep, nil
}

type bostonConfig struct {
	id, title string
	sc        sc.SC
	column    string
	basedOn   string
	rate      float64
	strategy  drilldown.Strategy
	withDC    bool
	dc        ic.DC
	seed      int64
	errorKind []errgen.Kind
	bins      int
}

func bostonExperiment(cfg bostonConfig) (*Report, error) {
	rep := &Report{ID: cfg.id, Title: cfg.title}
	clean := datasets.Boston(datasets.BostonOptions{Seed: cfg.seed})
	ddOpts := drilldown.Options{Strategy: cfg.strategy}

	for _, kind := range cfg.errorKind {
		rng := rand.New(rand.NewSource(cfg.seed + int64(kind) + 1))
		dirty, truth, err := errgen.Inject(clean, errgen.Spec{
			Kind: kind, Column: cfg.column, Rate: cfg.rate, BasedOn: cfg.basedOn,
		}, rng)
		if err != nil {
			return nil, err
		}
		work := dirty
		workSC := cfg.sc
		if len(cfg.sc.Z) > 0 {
			bins := cfg.bins
			if bins <= 1 {
				bins = 3
			}
			work, workSC, err = discretizeConditioning(dirty, cfg.sc, bins)
			if err != nil {
				return nil, err
			}
		}

		nErr := eval.TruthCount(truth)
		ks := eval.Ks(nErr/4, nErr*2, nErr/4)

		rankers := map[string]eval.Ranker{
			"SCODED": scodedRanker(work, []sc.SC{workSC}, ddOpts),
			"DBoost": baselineRanker(func(k int) ([]int, error) {
				return (&dboost.Detector{Opts: dboost.Options{
					Model: dboost.GMM, Columns: cfg.sc.Columns(),
				}}).TopK(dirty, k)
			}),
		}
		if cfg.withDC {
			rankers["DCDetect"] = baselineRanker(func(k int) ([]int, error) {
				return (&dcdetect.Detector{DCs: []ic.DC{cfg.dc}}).TopK(dirty, k)
			})
		}
		meanF := make(map[string]float64)
		maxF := make(map[string]float64)
		for name, r := range rankers {
			curve, err := eval.Curve(r, truth, ks)
			if err != nil {
				return nil, fmt.Errorf("%s/%s/%s: %w", cfg.id, kind, name, err)
			}
			s := Series{Name: kind.String() + "/" + name}
			for _, m := range curve {
				s.X = append(s.X, float64(m.K))
				s.Y = append(s.Y, m.F)
			}
			rep.Series = append(rep.Series, s)
			meanF[name] = eval.MeanF(curve)
			maxF[name] = eval.MaxF(curve)
		}
		t := Table{
			Title:  fmt.Sprintf("%s errors (rate %.0f%%)", kind, 100*cfg.rate),
			Header: []string{"approach", "mean F", "max F"},
		}
		for _, name := range sortedKeys(meanF) {
			t.Rows = append(t.Rows, []string{name, fmtF(meanF[name]), fmtF(maxF[name])})
		}
		rep.Tables = append(rep.Tables, t)
		rep.Notes = append(rep.Notes, fmt.Sprintf("%s: SCODED mean F=%.3f max F=%.3f",
			kind, meanF["SCODED"], maxF["SCODED"]))
	}
	return rep, nil
}

// discretizeConditioning replaces numeric conditioning columns of the SC by
// quantile-binned categorical copies so that stratification is meaningful,
// returning the rewritten relation and constraint.
func discretizeConditioning(d *relation.Relation, c sc.SC, bins int) (*relation.Relation, sc.SC, error) {
	out := d.Clone()
	newZ := make([]string, len(c.Z))
	for i, z := range c.Z {
		col, err := out.Column(z)
		if err != nil {
			return nil, sc.SC{}, err
		}
		if col.Kind != relation.Numeric {
			newZ[i] = z
			continue
		}
		codes, _ := kernel.DiscretizeQuantile(col.Floats(), bins)
		labels := make([]string, len(codes))
		for j, code := range codes {
			labels[j] = fmt.Sprintf("bin%d", code)
		}
		name := z + "_bin"
		if err := out.AddColumn(relation.NewCategoricalColumn(name, labels)); err != nil {
			return nil, sc.SC{}, err
		}
		newZ[i] = name
	}
	c2 := c
	c2.Z = newZ
	return out, c2, nil
}
