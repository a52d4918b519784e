package drilldown_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"scoded/internal/drilldown"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/server"
	"scoded/internal/stats"
)

// TestTauDrillNonFinite pins the τ drill-down's rule for non-finite
// numbers, the one stats.Kendall applies. Infinities are ordered values:
// equal infinities tie, so the delta and linear greedies agree and the
// statistic is Kendall's nc - nd. NaN has no order: TopK and MultiTopK fail
// naming the column, and /v1/drilldown answers 422.
func TestTauDrillNonFinite(t *testing.T) {
	inf, ninf := math.Inf(1), math.Inf(-1)
	x := []float64{1, inf, inf, 2, ninf, ninf, 3, inf, 0, math.Copysign(0, -1), 5, ninf, 4, inf}
	y := []float64{1, 2, 3, 0, inf, inf, ninf, 2, 0, 0, ninf, 7, inf, inf}
	d := relation.MustNew(
		relation.NewNumericColumn("X", x),
		relation.NewNumericColumn("Y", y),
	)
	kr, err := stats.Kendall(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"X _||_ Y", "X ~||~ Y"} {
		for _, strat := range []drilldown.Strategy{drilldown.K, drilldown.Kc} {
			for _, k := range []int{1, 4, 9} {
				label := fmt.Sprintf("%s/%s/k=%d", text, strat, k)
				c := sc.MustParse(text)
				opts := drilldown.Options{Strategy: strat}
				fast, err := drilldown.TopK(d, c, k, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				ref, err := drilldown.TopKLinear(d, c, k, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(fast, ref) {
					t.Errorf("%s: delta %+v vs linear %+v", label, fast, ref)
				}
				if want := float64(kr.Concordant - kr.Discordant); fast.InitialStat != want {
					t.Errorf("%s: InitialStat %v, stats.Kendall nc-nd %v", label, fast.InitialStat, want)
				}
			}
		}
	}

	// NaN in either column fails the library calls, naming the column.
	for _, col := range []string{"X", "Y"} {
		nx, ny := append([]float64(nil), x...), append([]float64(nil), y...)
		if col == "X" {
			nx[3] = math.NaN()
		} else {
			ny[5] = math.NaN()
		}
		nd := relation.MustNew(relation.NewNumericColumn("X", nx), relation.NewNumericColumn("Y", ny))
		c := sc.MustParse("X _||_ Y")
		if _, err := drilldown.TopK(nd, c, 3, drilldown.Options{}); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", col)) {
			t.Errorf("TopK with NaN in %s: err %v, want one naming the column", col, err)
		}
		if _, err := drilldown.TopKLinear(nd, c, 3, drilldown.Options{}); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", col)) {
			t.Errorf("TopKLinear with NaN in %s: err %v, want one naming the column", col, err)
		}
		if _, err := drilldown.MultiTopK(nd, []sc.SC{c}, 3, drilldown.Options{}); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", col)) {
			t.Errorf("MultiTopK with NaN in %s: err %v, want one naming the column", col, err)
		}
	}

	// The service answers 422 for both request forms, never 500 or a
	// ranking.
	h := server.New(server.Options{}).Handler()
	csv := "Price,Mileage\n1,10\n2,NaN\n3,30\n4,40\n5,50\n6,60\n"
	req := httptest.NewRequest("POST", "/v1/datasets?name=cars", strings.NewReader(csv))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", rec.Code, rec.Body)
	}
	for _, body := range []map[string]any{
		{"dataset": "cars", "constraint": "Price _||_ Mileage", "k": 2},
		{"dataset": "cars", "constraints": []string{"Price _||_ Mileage"}, "k": 2},
	} {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/drilldown", bytes.NewReader(raw)))
		if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), `\"Mileage\"`) {
			t.Errorf("drilldown %s on NaN data: status %d body %s, want 422 naming Mileage", raw, rec.Code, rec.Body)
		}
	}
}
