package datasets

import (
	"testing"

	"scoded/internal/detect"
	"scoded/internal/ic"
	"scoded/internal/sc"
)

func TestSensorStructure(t *testing.T) {
	d := Sensor(SensorOptions{Hours: 800, ErrorRate: 0.15, Seed: 1})
	if d.Rel.NumRows() != 800 {
		t.Fatalf("rows = %d", d.Rel.NumRows())
	}
	// Each of the three sensors gets 15% imputed rows; overlaps make the
	// union land between 120 (fully overlapping) and 360.
	nErr := 0
	for _, e := range d.Truth {
		if e {
			nErr++
		}
	}
	if nErr < 120 || nErr > 360 {
		t.Errorf("errors = %d, want within [120, 360]", nErr)
	}
	// Pairs stay strongly dependent despite the imputation.
	res, err := detect.Check(d.Rel, sc.Approximate{SC: sc.MustParse("T7 ~||~ T9"), Alpha: 0.05}, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Errorf("T7 ~||~ T9 should hold (p=%v)", res.Test.P)
	}
	// Determinism.
	d2 := Sensor(SensorOptions{Hours: 800, ErrorRate: 0.15, Seed: 1})
	if d2.Rel.MustColumn("T8").Value(3) != d.Rel.MustColumn("T8").Value(3) {
		t.Error("generator not deterministic")
	}
}

func TestSensorImputationWeakensDependence(t *testing.T) {
	clean := Sensor(SensorOptions{Hours: 800, ErrorRate: 0.0001, Seed: 2})
	dirty := Sensor(SensorOptions{Hours: 800, ErrorRate: 0.4, Seed: 2})
	tau := func(d Dirty) float64 {
		res, err := detect.Check(d.Rel, sc.Approximate{SC: sc.MustParse("T8 ~||~ T9"), Alpha: 0.3}, detect.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Test.Statistic
	}
	if tau(dirty) >= tau(clean) {
		t.Errorf("imputation should weaken |tau|: clean %v, dirty %v", tau(clean), tau(dirty))
	}
}

func TestHospStructure(t *testing.T) {
	d := Hosp(HospOptions{Rows: 2000, Seed: 3})
	if d.Rel.NumRows() != 2000 {
		t.Fatalf("rows = %d", d.Rel.NumRows())
	}
	// Roughly 10% of rows are corrupted (5% LHS + 5% RHS).
	nErr := 0
	for _, e := range d.Truth {
		if e {
			nErr++
		}
	}
	if nErr < 150 || nErr > 250 {
		t.Errorf("errors = %d, want ~200", nErr)
	}
	// The FD must be approximate, not exact, and within a plausible band.
	ratio, err := ic.FD{LHS: []string{"Zip"}, RHS: []string{"City"}}.ApproximationRatio(d.Rel)
	if err != nil {
		t.Fatal(err)
	}
	if ratio <= 0 || ratio > 0.15 {
		t.Errorf("approximation ratio = %v", ratio)
	}
	// Clean generation satisfies the FD exactly.
	clean := Hosp(HospOptions{Rows: 2000, Seed: 3, RHSRate: 1e-9, LHSRate: 1e-9})
	// (rates clamp to at least 1 row each, so allow <= 2 violating rows)
	cr, _ := ic.FD{LHS: []string{"Zip"}, RHS: []string{"City"}}.ApproximationRatio(clean.Rel)
	if cr > 0.002 {
		t.Errorf("near-clean approximation ratio = %v", cr)
	}
}

func TestHospLHSTyposAreSingletons(t *testing.T) {
	d := Hosp(HospOptions{Rows: 1000, Seed: 4})
	zip := d.Rel.MustColumn("Zip")
	groups := d.Rel.GroupByFlat([]string{"Zip"})
	// Every mangled zip (contains '~') must form a singleton group.
	for key, rows := range groups {
		if len(rows) == 1 && !containsTilde(zip.StringAt(rows[0])) {
			continue // legitimately rare zip is fine
		}
		if containsTilde(key) && len(rows) != 1 {
			t.Errorf("mangled zip %q has %d rows", key, len(rows))
		}
	}
}

func containsTilde(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '~' {
			return true
		}
	}
	return false
}

func TestHockeyStructure(t *testing.T) {
	d := Hockey(HockeyOptions{Players: 1500, Seed: 5})
	if d.Rel.NumRows() != 1500 {
		t.Fatalf("rows = %d", d.Rel.NumRows())
	}
	// Every corrupted record has GPM = 0, Games > 0, DraftYear < 2000 —
	// the Figure 7 signature.
	gpm := d.Rel.MustColumn("GPM")
	games := d.Rel.MustColumn("Games")
	year := d.Rel.MustColumn("DraftYear")
	for i, isErr := range d.Truth {
		if !isErr {
			if gpm.Value(i) == 0 {
				t.Errorf("clean row %d has GPM=0; zeros must identify errors", i)
			}
			continue
		}
		if gpm.Value(i) != 0 {
			t.Errorf("error row %d has GPM=%v", i, gpm.Value(i))
		}
		if games.Value(i) <= 0 {
			t.Errorf("error row %d has Games=%v", i, games.Value(i))
		}
		if y := year.StringAt(i); y != "1998" && y != "1999" {
			t.Errorf("error row %d has DraftYear=%s", i, y)
		}
	}
	// The imputation plants a conditional dependence Games ⊥̸ GPM |
	// DraftYear. The dependence is non-monotone (GPM = 0 sits mid-range),
	// so the G-test — not Kendall — is the right instrument, as in the
	// case study's Bayesian-network discovery.
	res, err := detect.Check(d.Rel, sc.Approximate{SC: sc.MustParse("Games _||_ GPM | DraftYear"), Alpha: 0.01},
		detect.Options{Method: detect.G})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Errorf("spurious dependence not detectable (p=%v)", res.Test.P)
	}
}

func TestCarStructure(t *testing.T) {
	d := Car(CarOptions{Copies: 20, Seed: 6})
	if d.NumRows() != 20*48 {
		t.Fatalf("rows = %d", d.NumRows())
	}
	// BP ⊥̸ CL must hold on clean data.
	dep, err := detect.Check(d, sc.Approximate{SC: sc.MustParse("BP ~||~ CL"), Alpha: 0.05}, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Violated {
		t.Errorf("BP ~||~ CL should hold on clean CAR data (p=%v)", dep.Test.P)
	}
	// SA ⊥ DR must hold (free factorial axes).
	ind, err := detect.Check(d, sc.Approximate{SC: sc.MustParse("SA _||_ DR"), Alpha: 0.05}, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ind.Violated {
		t.Errorf("SA _||_ DR should hold on clean CAR data (p=%v)", ind.Test.P)
	}
}

func TestBostonStructure(t *testing.T) {
	d := Boston(BostonOptions{Seed: 7})
	if d.NumRows() != 506 {
		t.Fatalf("rows = %d", d.NumRows())
	}
	check := func(expr string, alpha float64, wantViolated bool) {
		t.Helper()
		res, err := detect.Check(d, sc.Approximate{SC: sc.MustParse(expr), Alpha: alpha}, detect.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violated != wantViolated {
			t.Errorf("%s: violated=%v (p=%v), want %v", expr, res.Violated, res.Test.P, wantViolated)
		}
	}
	check("N ~||~ D", 0.05, false)  // strong dependence present
	check("R _||_ B", 0.05, false)  // independence holds
	check("TX ~||~ B", 0.05, false) // dependence present
}

func TestBostonConditionalStructure(t *testing.T) {
	// Conditional constraints of Table 3 on a larger sample for stable
	// strata.
	d := Replicate(Boston(BostonOptions{Seed: 8}), 4)
	res, err := detect.Check(d, sc.Approximate{SC: sc.MustParse("N _||_ B | TX"), Alpha: 0.01},
		detect.Options{Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Errorf("N _||_ B | TX should hold (p=%v)", res.Test.P)
	}
}

func TestReplicate(t *testing.T) {
	d := Boston(BostonOptions{Rows: 100, Seed: 9})
	r := Replicate(d, 3)
	if r.NumRows() != 300 {
		t.Fatalf("rows = %d", r.NumRows())
	}
	if r.MustColumn("D").Value(100) != d.MustColumn("D").Value(0) {
		t.Error("replica 2 should repeat the original")
	}
	one := Replicate(d, 1)
	if one.NumRows() != 100 {
		t.Error("copies=1 should clone")
	}
}

func TestNebraskaStructure(t *testing.T) {
	nd := Nebraska(NebraskaOptions{Seed: 10})
	if nd.Rel.NumRows() != 30*120 {
		t.Fatalf("rows = %d", nd.Rel.NumRows())
	}
	// Clean years satisfy Wind ~||~ Weather within the year.
	groups := nd.Rel.GroupByFlat([]string{"Year"})
	for _, year := range []string{"1975", "1985", "1995"} {
		sub := nd.Rel.Subset(groups[year])
		res, err := detect.Check(sub, sc.Approximate{SC: sc.MustParse("Wind ~||~ Weather"), Alpha: 0.3}, detect.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violated {
			t.Errorf("year %s: Wind ~||~ Weather should hold (p=%v)", year, res.Test.P)
		}
	}
	// 1989 (constant imputation) violates it.
	sub := nd.Rel.Subset(groups["1989"])
	res, err := detect.Check(sub, sc.Approximate{SC: sc.MustParse("Wind ~||~ Weather"), Alpha: 0.3}, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Errorf("1989 should violate the DSC (p=%v)", res.Test.P)
	}
	// 1972 violates the Sea DSC.
	sub = nd.Rel.Subset(groups["1972"])
	res, err = detect.Check(sub, sc.Approximate{SC: sc.MustParse("Sea ~||~ Weather"), Alpha: 0.3}, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Errorf("1972 should violate the Sea DSC (p=%v)", res.Test.P)
	}
	// A clean year satisfies the Sea DSC.
	sub = nd.Rel.Subset(groups["1990"])
	res, _ = detect.Check(sub, sc.Approximate{SC: sc.MustParse("Sea ~||~ Weather"), Alpha: 0.3}, detect.Options{})
	if res.Violated {
		t.Errorf("1990 should satisfy the Sea DSC (p=%v)", res.Test.P)
	}
}
