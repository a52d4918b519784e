// Nebraska reproduces the paper's Section 6.2 model-testing case study. A
// weather classifier was trained on historical data in which Wind and
// Sea-level pressure strongly predict the Weather label. Before trusting
// the model on the 1970-1999 test window, the analyst enforces the two
// dependencies as approximate SCs per year — and SCODED flags exactly the
// years whose data was corrupted by constant imputation (Wind, 1978 and
// 1989) and gross outliers (Sea, 1972).
package main

import (
	"fmt"
	"log"
	"strconv"
	"strings"

	"scoded"
	"scoded/internal/datasets"
)

func main() {
	nd := datasets.Nebraska(datasets.NebraskaOptions{Seed: 42})
	rel := nd.Rel
	fmt.Printf("loaded %d weather records (1970-1999)\n\n", rel.NumRows())

	groups := rel.GroupByFlat([]string{"Year"})
	const alpha = 0.3

	for _, cfg := range []struct {
		feature string
		sc      string
	}{
		{"Wind", "Wind ~||~ Weather"},
		{"Sea", "Sea ~||~ Weather"},
	} {
		fmt.Printf("enforcing <%s | Year, alpha=%.1f> per year (p >= %.1f violates):\n",
			cfg.sc, alpha, alpha)
		var violations []string
		var bars []string
		for year := 1970; year <= 1999; year++ {
			sub := rel.Subset(groups[strconv.Itoa(year)])
			res, err := scoded.Check(sub,
				scoded.ApproximateSC{SC: scoded.MustParseSC(cfg.sc), Alpha: alpha},
				scoded.CheckOptions{})
			if err != nil {
				log.Fatal(err)
			}
			marker := ""
			if res.Violated {
				marker = "  <-- VIOLATED"
				violations = append(violations, strconv.Itoa(year))
			}
			bars = append(bars, fmt.Sprintf("  %d p=%-7.4f %s%s",
				year, res.Test.P, strings.Repeat("#", int(res.Test.P*40)), marker))
		}
		for _, b := range bars {
			fmt.Println(b)
		}
		fmt.Printf("=> %s violations: %v\n\n", cfg.feature, violations)
	}

	// Drill into 1972's sea-pressure violation: how many of the outliers
	// does the top-k recover (the paper reports about 64%)?
	rows := groups["1972"]
	sub := rel.Subset(rows)
	nOut := 0
	for _, r := range rows {
		if nd.Truth[r] {
			nOut++
		}
	}
	top, err := scoded.TopK(sub, scoded.MustParseSC("Sea ~||~ Weather"), nOut,
		scoded.DrillOptions{Strategy: scoded.KStrategy})
	if err != nil {
		log.Fatal(err)
	}
	hits := 0
	for _, local := range top.Rows {
		if nd.Truth[rows[local]] {
			hits++
		}
	}
	fmt.Printf("1972 drill-down: top-%d recovered %d/%d planted outliers (%.0f%%)\n",
		nOut, hits, nOut, 100*float64(hits)/float64(nOut))
}
