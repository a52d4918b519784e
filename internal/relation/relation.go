// Package relation implements a small in-memory relational engine used as the
// data substrate for SCODED. It provides typed columnar tables, projection,
// natural join, grouping, and the empirical distribution P_D of Section 2.1
// of the paper, together with CSV input/output.
//
// A Relation stores its data column-major. Each column is either categorical
// (string-valued) or numeric (float64-valued). Categorical columns are
// dictionary-encoded: cell values are small integer codes into a per-column
// dictionary, which makes group-by and contingency-table construction cheap.
package relation

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind describes the type of a column.
type Kind int

const (
	// Categorical columns hold discrete string values.
	Categorical Kind = iota
	// Numeric columns hold float64 values.
	Numeric
)

// String returns "categorical" or "numeric".
func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Column is a single typed column of a relation. Exactly one of the code or
// value slices is populated, depending on Kind.
type Column struct {
	Name string
	Kind Kind

	// codes holds dictionary codes for categorical columns.
	codes []int
	// dict maps a code to its string value; inverse of index.
	dict []string
	// index maps a string value to its code.
	index map[string]int

	// values holds the data for numeric columns.
	values []float64
}

// NewCategoricalColumn builds a categorical column from raw string values.
func NewCategoricalColumn(name string, vals []string) *Column {
	c := &Column{Name: name, Kind: Categorical, index: make(map[string]int)}
	c.codes = make([]int, len(vals))
	for i, v := range vals {
		c.codes[i] = c.intern(v)
	}
	return c
}

// NewNumericColumn builds a numeric column from raw float values.
func NewNumericColumn(name string, vals []float64) *Column {
	v := make([]float64, len(vals))
	copy(v, vals)
	return &Column{Name: name, Kind: Numeric, values: v}
}

func (c *Column) intern(v string) int {
	if code, ok := c.index[v]; ok {
		return code
	}
	code := len(c.dict)
	c.dict = append(c.dict, v)
	c.index[v] = code
	return code
}

// Len returns the number of cells in the column.
func (c *Column) Len() int {
	if c.Kind == Categorical {
		return len(c.codes)
	}
	return len(c.values)
}

// Cardinality returns the number of distinct values in a categorical column.
// For numeric columns it returns the number of distinct float values.
func (c *Column) Cardinality() int {
	if c.Kind == Categorical {
		return len(c.dict)
	}
	seen := make(map[float64]struct{}, len(c.values))
	for _, v := range c.values {
		seen[v] = struct{}{}
	}
	return len(seen)
}

// Code returns the dictionary code of row i. Panics on numeric columns.
func (c *Column) Code(i int) int {
	if c.Kind != Categorical {
		panic("relation: Code on numeric column " + c.Name)
	}
	return c.codes[i]
}

// Value returns the numeric value of row i. Panics on categorical columns.
func (c *Column) Value(i int) float64 {
	if c.Kind != Numeric {
		panic("relation: Value on categorical column " + c.Name)
	}
	return c.values[i]
}

// String returns the string form of cell i for either kind.
func (c *Column) StringAt(i int) string {
	if c.Kind == Categorical {
		return c.dict[c.codes[i]]
	}
	return formatFloat(c.values[i])
}

// Levels returns the dictionary of a categorical column (code order).
func (c *Column) Levels() []string {
	out := make([]string, len(c.dict))
	copy(out, c.dict)
	return out
}

// Floats returns a copy of the numeric data. Panics on categorical columns.
func (c *Column) Floats() []float64 {
	if c.Kind != Numeric {
		panic("relation: Floats on categorical column " + c.Name)
	}
	out := make([]float64, len(c.values))
	copy(out, c.values)
	return out
}

// SetValue overwrites the numeric value at row i.
func (c *Column) SetValue(i int, v float64) {
	if c.Kind != Numeric {
		panic("relation: SetValue on categorical column " + c.Name)
	}
	c.values[i] = v
}

// SetString overwrites the categorical value at row i, interning as needed.
func (c *Column) SetString(i int, v string) {
	if c.Kind != Categorical {
		panic("relation: SetString on numeric column " + c.Name)
	}
	c.codes[i] = c.intern(v)
}

func (c *Column) clone() *Column {
	out := &Column{Name: c.Name, Kind: c.Kind}
	if c.Kind == Categorical {
		out.codes = append([]int(nil), c.codes...)
		out.dict = append([]string(nil), c.dict...)
		out.index = make(map[string]int, len(c.index))
		for k, v := range c.index {
			out.index[k] = v
		}
	} else {
		out.values = append([]float64(nil), c.values...)
	}
	return out
}

// subset returns a column restricted to the given row indices.
func (c *Column) subset(rows []int) *Column {
	out := &Column{Name: c.Name, Kind: c.Kind}
	if c.Kind == Categorical {
		out.index = make(map[string]int)
		out.codes = make([]int, len(rows))
		for i, r := range rows {
			out.codes[i] = out.intern(c.dict[c.codes[r]])
		}
	} else {
		out.values = make([]float64, len(rows))
		for i, r := range rows {
			out.values[i] = c.values[r]
		}
	}
	return out
}

func formatFloat(v float64) string {
	//scoded:lint-ignore floatcmp integer-valued test against Trunc is exact by definition
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// FormatFloat renders a numeric value exactly as StringAt and RowKey do,
// so group keys built outside a materialized relation (the streaming
// kernel reads segments directly) are byte-identical to partition keys
// built from a resident relation.
func FormatFloat(v float64) string { return formatFloat(v) }

// Relation is an in-memory table: an ordered set of named, typed columns of
// equal length.
type Relation struct {
	cols   []*Column
	byName map[string]int
}

// New creates a relation from columns. All columns must have equal length and
// distinct names.
func New(cols ...*Column) (*Relation, error) {
	r := &Relation{byName: make(map[string]int, len(cols))}
	for _, c := range cols {
		if err := r.addColumn(c); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// MustNew is New but panics on error; intended for tests and generators with
// statically known shapes.
func MustNew(cols ...*Column) *Relation {
	r, err := New(cols...)
	if err != nil {
		panic(err)
	}
	return r
}

func (r *Relation) addColumn(c *Column) error {
	if _, dup := r.byName[c.Name]; dup {
		return fmt.Errorf("relation: duplicate column %q", c.Name)
	}
	if len(r.cols) > 0 && c.Len() != r.cols[0].Len() {
		return fmt.Errorf("relation: column %q has %d rows, want %d", c.Name, c.Len(), r.cols[0].Len())
	}
	r.byName[c.Name] = len(r.cols)
	r.cols = append(r.cols, c)
	return nil
}

// AddColumn appends a column to the relation.
func (r *Relation) AddColumn(c *Column) error { return r.addColumn(c) }

// NumRows returns the number of records.
func (r *Relation) NumRows() int {
	if len(r.cols) == 0 {
		return 0
	}
	return r.cols[0].Len()
}

// NumCols returns the number of columns.
func (r *Relation) NumCols() int { return len(r.cols) }

// ApproxBytes estimates the relation's resident heap footprint: the column
// slices plus categorical dictionary strings. The server's resident-relation
// LRU weighs datasets that have no on-disk size by it.
func (r *Relation) ApproxBytes() int64 {
	var total int64
	for _, c := range r.cols {
		if c.Kind == Categorical {
			total += int64(len(c.codes)) * 8
			for _, v := range c.dict {
				total += int64(len(v)) + 16 // string header
			}
		} else {
			total += int64(len(c.values)) * 8
		}
	}
	return total
}

// Columns returns the column names in order.
func (r *Relation) Columns() []string {
	out := make([]string, len(r.cols))
	for i, c := range r.cols {
		out[i] = c.Name
	}
	return out
}

// Column returns the named column, or an error if absent.
func (r *Relation) Column(name string) (*Column, error) {
	i, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("relation: no column %q (have %s)", name, strings.Join(r.Columns(), ", "))
	}
	return r.cols[i], nil
}

// MustColumn is Column but panics on error.
func (r *Relation) MustColumn(name string) *Column {
	c, err := r.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// HasColumn reports whether the relation has the named column.
func (r *Relation) HasColumn(name string) bool {
	_, ok := r.byName[name]
	return ok
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	out := &Relation{byName: make(map[string]int, len(r.byName))}
	for _, c := range r.cols {
		out.addColumn(c.clone())
	}
	return out
}

// Subset returns a new relation containing only the given rows, in order.
func (r *Relation) Subset(rows []int) *Relation {
	out := &Relation{byName: make(map[string]int, len(r.byName))}
	for _, c := range r.cols {
		out.addColumn(c.subset(rows))
	}
	return out
}

// Drop returns a new relation with the given row set removed. The drop set is
// given as a map for O(1) membership tests.
func (r *Relation) Drop(drop map[int]bool) *Relation {
	keep := make([]int, 0, r.NumRows())
	for i := 0; i < r.NumRows(); i++ {
		if !drop[i] {
			keep = append(keep, i)
		}
	}
	return r.Subset(keep)
}

// Project returns a new relation with only the named columns (deep-copied).
func (r *Relation) Project(names ...string) (*Relation, error) {
	out := &Relation{byName: make(map[string]int, len(names))}
	for _, n := range names {
		c, err := r.Column(n)
		if err != nil {
			return nil, err
		}
		if err := out.addColumn(c.clone()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Row returns the string form of every cell in row i, in column order.
func (r *Relation) Row(i int) []string {
	out := make([]string, len(r.cols))
	for j, c := range r.cols {
		out[j] = c.StringAt(i)
	}
	return out
}

// RowKey returns a canonical string key of row i restricted to the named
// columns, suitable for map keys. Distinct value tuples yield distinct keys.
func (r *Relation) RowKey(i int, names []string) string {
	var b strings.Builder
	for j, n := range names {
		if j > 0 {
			b.WriteByte('\x1f') // unit separator: cannot occur in CSV fields we parse
		}
		b.WriteString(r.MustColumn(n).StringAt(i))
	}
	return b.String()
}

// DistinctRows returns the set of distinct value tuples over the named
// columns, as row keys, together with their multiplicities.
func (r *Relation) DistinctRows(names []string) map[string]int {
	out := make(map[string]int)
	for i := 0; i < r.NumRows(); i++ {
		out[r.RowKey(i, names)]++
	}
	return out
}

// SortedGroupKeys returns the group keys of GroupByFlat(names) in sorted order,
// for deterministic iteration.
func SortedGroupKeys(groups map[string][]int) []string {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
