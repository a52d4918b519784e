// Package ic implements the integrity constraints the paper relates to
// statistical constraints in Section 2.2 — functional dependencies (FDs),
// multi-valued dependencies (MVDs), embedded multi-valued dependencies
// (EMVDs), and denial constraints (DCs) — together with exact checkers over
// relations and the entailment translations of Table 1:
//
//	FD  X → Y        ⇒  MVD X ↠ Y  ⇔  saturated ISC  Y ⊥ (X∪Y)^C | X
//	ISC Y ⊥ Z | X    ⇒  EMVD X ↠ Y | Z              (Proposition 1)
//	FD  X → Y        ⇒  MI-maximal DSC X ⊥̸ Y        (Proposition 2)
package ic

import (
	"fmt"
	"sort"
	"strings"

	"scoded/internal/relation"
	"scoded/internal/sc"
)

// FD is a functional dependency LHS → RHS (Definition 2).
type FD struct {
	LHS, RHS []string
}

// String renders "A,B -> C".
func (f FD) String() string {
	return strings.Join(f.LHS, ",") + " -> " + strings.Join(f.RHS, ",")
}

// Validate checks the FD shape.
func (f FD) Validate() error {
	if len(f.LHS) == 0 || len(f.RHS) == 0 {
		return fmt.Errorf("ic: FD needs non-empty LHS and RHS: %s", f)
	}
	return nil
}

// validateAgainst checks the FD shape and that the relation has every
// referenced column.
func (f FD) validateAgainst(d *relation.Relation) error {
	if err := f.Validate(); err != nil {
		return err
	}
	for _, c := range append(append([]string(nil), f.LHS...), f.RHS...) {
		if !d.HasColumn(c) {
			return fmt.Errorf("ic: relation lacks column %q for FD %s", c, f)
		}
	}
	return nil
}

// Holds reports whether the relation satisfies the FD exactly: any two
// records agreeing on LHS agree on RHS.
func (f FD) Holds(d *relation.Relation) (bool, error) {
	if err := f.validateAgainst(d); err != nil {
		return false, err
	}
	seen := make(map[string]string)
	for i := 0; i < d.NumRows(); i++ {
		l := d.RowKey(i, f.LHS)
		r := d.RowKey(i, f.RHS)
		if prev, ok := seen[l]; ok {
			if prev != r {
				return false, nil
			}
		} else {
			seen[l] = r
		}
	}
	return true, nil
}

// ViolationCounts returns, for each record, the number of other records it
// disagrees with under the FD (same LHS, different RHS). This is the ranking
// signal the AFD baseline and DCDetect use.
func (f FD) ViolationCounts(d *relation.Relation) ([]int, error) {
	if err := f.validateAgainst(d); err != nil {
		return nil, err
	}
	n := d.NumRows()
	counts := make([]int, n)
	// Group by LHS; within a group, a record with RHS value v conflicts
	// with every group member holding a different RHS value.
	groups := d.GroupByFlat(f.LHS)
	for _, rows := range groups {
		rhsCount := make(map[string]int)
		for _, r := range rows {
			rhsCount[d.RowKey(r, f.RHS)]++
		}
		total := len(rows)
		for _, r := range rows {
			counts[r] = total - rhsCount[d.RowKey(r, f.RHS)]
		}
	}
	return counts, nil
}

// ApproximationRatio returns the g3-style approximation ratio of the FD: the
// minimum fraction of records that must be removed for the FD to hold
// exactly. Within each LHS group the records outside the majority RHS class
// must go.
func (f FD) ApproximationRatio(d *relation.Relation) (float64, error) {
	if err := f.validateAgainst(d); err != nil {
		return 0, err
	}
	n := d.NumRows()
	if n == 0 {
		return 0, nil
	}
	remove := 0
	for _, rows := range d.GroupByFlat(f.LHS) {
		rhsCount := make(map[string]int)
		for _, r := range rows {
			rhsCount[d.RowKey(r, f.RHS)]++
		}
		max := 0
		for _, c := range rhsCount {
			if c > max {
				max = c
			}
		}
		remove += len(rows) - max
	}
	return float64(remove) / float64(n), nil
}

// ToDSC translates the FD into the dependence SC of Proposition 2:
// X ⊥̸ Y of maximal mutual-information strength. The paper uses this
// translation to run SCODED drill-down on an approximate FD.
func (f FD) ToDSC() sc.SC {
	return sc.Dependence(f.LHS, f.RHS, nil)
}

// EMVD is an embedded multi-valued dependency X ↠ Y | Z (Definition 3).
type EMVD struct {
	X, Y, Z []string
}

// String renders "X ->> Y | Z".
func (e EMVD) String() string {
	return strings.Join(e.X, ",") + " ->> " + strings.Join(e.Y, ",") + " | " + strings.Join(e.Z, ",")
}

// Validate checks that the three sets are non-empty and disjoint.
func (e EMVD) Validate() error {
	if len(e.X) == 0 || len(e.Y) == 0 || len(e.Z) == 0 {
		return fmt.Errorf("ic: EMVD needs non-empty X, Y, Z: %s", e)
	}
	seen := make(map[string]bool)
	for _, c := range append(append(append([]string(nil), e.X...), e.Y...), e.Z...) {
		if seen[c] {
			return fmt.Errorf("ic: EMVD sets must be disjoint, %q repeats in %s", c, e)
		}
		seen[c] = true
	}
	return nil
}

// Holds checks the EMVD by Definition 3: Π_XYZ(D) = Π_XY(D) ⋈ Π_XZ(D).
func (e EMVD) Holds(d *relation.Relation) (bool, error) {
	if err := e.Validate(); err != nil {
		return false, err
	}
	all := append(append(append([]string(nil), e.X...), e.Y...), e.Z...)
	for _, c := range all {
		if !d.HasColumn(c) {
			return false, fmt.Errorf("ic: relation lacks column %q for EMVD %s", c, e)
		}
	}
	xyz, err := d.Project(all...)
	if err != nil {
		return false, err
	}
	xy, err := d.Project(append(append([]string(nil), e.X...), e.Y...)...)
	if err != nil {
		return false, err
	}
	xz, err := d.Project(append(append([]string(nil), e.X...), e.Z...)...)
	if err != nil {
		return false, err
	}
	j, err := relation.NaturalJoin(xy, xz)
	if err != nil {
		return false, err
	}
	return relation.EqualAsSets(j, xyz), nil
}

// MVD is a multi-valued dependency X ↠ Y: the saturated special case of an
// EMVD whose Z is the complement of X ∪ Y in the relation schema.
type MVD struct {
	X, Y []string
}

// String renders "X ->> Y".
func (m MVD) String() string {
	return strings.Join(m.X, ",") + " ->> " + strings.Join(m.Y, ",")
}

// Holds checks the MVD against the relation by expanding it to the
// saturated EMVD over the relation's schema. If the complement is empty, the
// MVD holds trivially.
func (m MVD) Holds(d *relation.Relation) (bool, error) {
	if len(m.X) == 0 || len(m.Y) == 0 {
		return false, fmt.Errorf("ic: MVD needs non-empty X and Y: %s", m)
	}
	z := complementOf(d, append(append([]string(nil), m.X...), m.Y...))
	if len(z) == 0 {
		return true, nil
	}
	return EMVD{X: m.X, Y: m.Y, Z: z}.Holds(d)
}

// ToSaturatedISC translates the MVD X ↠ Y into the equivalent saturated ISC
// Y ⊥ (X∪Y)^C | X over the given relation schema (Table 1, row 2).
func (m MVD) ToSaturatedISC(d *relation.Relation) (sc.SC, error) {
	z := complementOf(d, append(append([]string(nil), m.X...), m.Y...))
	if len(z) == 0 {
		return sc.SC{}, fmt.Errorf("ic: MVD %s is trivial on this schema (empty complement)", m)
	}
	return sc.Independence(m.Y, z, m.X), nil
}

// ISCToEMVD translates an independence SC Y ⊥ Z | X into the EMVD
// X ↠ Y | Z it entails (Proposition 1). The ISC must be conditional.
func ISCToEMVD(c sc.SC) (EMVD, error) {
	if c.Dependence {
		return EMVD{}, fmt.Errorf("ic: only an ISC entails an EMVD, got %s", c)
	}
	if len(c.Z) == 0 {
		return EMVD{}, fmt.Errorf("ic: ISC %s is marginal; Proposition 1 needs a conditioning set", c)
	}
	return EMVD{X: c.Z, Y: c.X, Z: c.Y}, nil
}

// SatisfiesISCExactly reports whether the empirical distribution of the
// relation satisfies the ISC exactly: P(X,Y|Z) = P(X|Z)·P(Y|Z) for every
// assignment (within tol for floating-point tolerance).
func SatisfiesISCExactly(d *relation.Relation, c sc.SC, tol float64) (bool, error) {
	if c.Dependence {
		return false, fmt.Errorf("ic: exact check applies to ISCs, got %s", c)
	}
	if err := c.Validate(); err != nil {
		return false, err
	}
	groups := groupsOrWhole(d, c.Z)
	for _, rows := range groups {
		sub := d.Subset(rows)
		joint := sub.Empirical(append(append([]string(nil), c.X...), c.Y...)...)
		px := sub.Empirical(c.X...)
		py := sub.Empirical(c.Y...)
		for key, p := range joint.Probs {
			xs, ys := splitKey(key, len(c.X))
			if diff := p - px.Probs[xs]*py.Probs[ys]; diff > tol || diff < -tol {
				return false, nil
			}
		}
		// Also check zero-probability combinations of observed marginals.
		for xk, pxv := range px.Probs {
			for yk, pyv := range py.Probs {
				joined := xk + "\x1f" + yk
				if _, ok := joint.Probs[joined]; !ok {
					if pxv*pyv > tol {
						return false, nil
					}
				}
			}
		}
	}
	return true, nil
}

func groupsOrWhole(d *relation.Relation, z []string) [][]int {
	if len(z) == 0 {
		rows := make([]int, d.NumRows())
		for i := range rows {
			rows[i] = i
		}
		return [][]int{rows}
	}
	groups := d.GroupByFlat(z)
	keys := relation.SortedGroupKeys(groups)
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, groups[k])
	}
	return out
}

// splitKey splits a RowKey over nx+ny columns into the X part and Y part.
func splitKey(key string, nx int) (string, string) {
	parts := strings.Split(key, "\x1f")
	return strings.Join(parts[:nx], "\x1f"), strings.Join(parts[nx:], "\x1f")
}

func complementOf(d *relation.Relation, used []string) []string {
	u := make(map[string]bool, len(used))
	for _, c := range used {
		u[c] = true
	}
	var out []string
	for _, c := range d.Columns() {
		if !u[c] {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}
