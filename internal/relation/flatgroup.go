package relation

import (
	"math"
	"sort"
)

// maxFlatRadix bounds the mixed-radix composite id space GroupIDs builds
// before it re-densifies the partial composite.
const maxFlatRadix = int64(1) << 31

// denseRemapCutoff is the largest composite-id space for which the gid
// remap uses a flat array instead of an int64-keyed map.
const denseRemapCutoff = int64(1) << 20

// GroupByFlat partitions the row indices by the value tuple over the named
// columns. The map is keyed by RowKey and each group's member list
// preserves row order, but no per-row key string is built: rows are
// encoded as flat []int32 code vectors per column (categorical columns
// reuse their dictionary codes; numeric columns go through DenseFloatCodes),
// GroupIDs combines the vectors into dense group ids, and only the first
// row of each group renders its key string. On the 20k-row benchmark
// workload this replaces 20 000 per-row string builds and string-map
// inserts per conditioning set with one per group.
//
// An empty column list yields one group keyed "" holding every row. Group
// member slices are views into one shared arena; callers must treat them
// as read-only, which the Partition sharing contract already requires.
func (r *Relation) GroupByFlat(names []string) map[string][]int {
	n := r.NumRows()
	if n == 0 {
		return map[string][]int{}
	}
	codes := make([][]int32, len(names))
	cards := make([]int, len(names))
	for ci, name := range names {
		codes[ci], cards[ci] = r.MustColumn(name).denseCodes()
	}
	gids, first := GroupIDs(codes, cards, n)
	next := int32(len(first))

	// Group sizes, then one arena filled in row order so every group's
	// member list preserves row order.
	starts := make([]int32, next+1)
	for _, g := range gids {
		starts[g+1]++
	}
	for g := int32(0); g < next; g++ {
		starts[g+1] += starts[g]
	}
	cursor := make([]int32, next)
	copy(cursor, starts[:next])
	arena := make([]int, n)
	for i, g := range gids {
		arena[cursor[g]] = i
		cursor[g]++
	}

	out := make(map[string][]int, next)
	for g := int32(0); g < next; g++ {
		key := r.RowKey(first[g], names)
		rows := arena[starts[g]:starts[g+1]:starts[g+1]]
		if prev, dup := out[key]; dup {
			// Distinct code vectors can render one key only when a value
			// contains the RowKey separator; the key is the group's identity,
			// so the rows merge.
			rows = mergeRows(prev, rows)
		}
		out[key] = rows
	}
	return out
}

// mergeRows merges two ascending row lists into a new ascending list.
func mergeRows(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Ints(out)
	return out
}

// GroupIDs combines per-row code vectors into dense group ids. codes[c][i]
// is row i's code in column c, in [0, cards[c]); n is the row count (all
// rows share one group when there are no columns). It returns each row's
// group id, assigned in first-occurrence order, and each group's first
// row. Rows get the same id exactly when they agree on every column.
//
// The columns fold into one mixed-radix composite id per row, remapped to
// dense ids at the end. When the next column would push the composite
// space past maxFlatRadix, the partial composite is re-densified first, so
// the space restarts at its group count (at most n) and the int64 ids never
// overflow for any column count.
func GroupIDs(codes [][]int32, cards []int, n int) (gids []int32, first []int) {
	ids := make([]int64, n)
	radix := int64(1)
	for ci, col := range codes {
		k := int64(cards[ci])
		if k > 1 && radix > maxFlatRadix/k {
			dense, groups := denseIDs(ids, radix)
			for i, g := range dense {
				ids[i] = int64(g)
			}
			radix = int64(len(groups))
		}
		for i, c := range col {
			ids[i] = ids[i]*k + int64(c)
		}
		radix *= k
	}
	return denseIDs(ids, radix)
}

// denseIDs remaps composite ids in [0, radix) to dense ids in
// first-occurrence order, returning them with each id's first row. Small
// spaces remap through a flat array; larger ones through an int64-keyed
// map (one entry per distinct group, not per row).
func denseIDs(ids []int64, radix int64) ([]int32, []int) {
	gids := make([]int32, len(ids))
	var first []int
	if radix <= denseRemapCutoff {
		remap := make([]int32, radix)
		for i := range remap {
			remap[i] = -1
		}
		for i, id := range ids {
			g := remap[id]
			if g < 0 {
				g = int32(len(first))
				remap[id] = g
				first = append(first, i)
			}
			gids[i] = g
		}
		return gids, first
	}
	remap := make(map[int64]int32)
	for i, id := range ids {
		g, ok := remap[id]
		if !ok {
			g = int32(len(first))
			remap[id] = g
			first = append(first, i)
		}
		gids[i] = g
	}
	return gids, first
}

// denseCodes returns a per-row dense int32 coding of the column and its
// cardinality. Categorical columns reuse their dictionary codes (the
// dictionary is dense by construction); numeric columns go through
// DenseFloatCodes.
func (c *Column) denseCodes() ([]int32, int) {
	if c.Kind == Categorical {
		out := make([]int32, len(c.codes))
		for i, v := range c.codes {
			out[i] = int32(v)
		}
		return out, len(c.dict)
	}
	return DenseFloatCodes(c.values)
}

// DenseFloatCodes codes values by exact float equality in first-occurrence
// order, with every NaN mapped to one shared code, and returns the codes
// with their count. These are the equivalence classes FormatFloat induces
// on the string side: distinct non-NaN floats render distinct strings,
// -0 and +0 compare equal and both render "0", and every NaN renders "NaN".
func DenseFloatCodes(vals []float64) ([]int32, int) {
	out := make([]int32, len(vals))
	remap := make(map[float64]int32, 16)
	nanCode := int32(-1)
	next := int32(0)
	for i, v := range vals {
		if math.IsNaN(v) {
			if nanCode < 0 {
				nanCode = next
				next++
			}
			out[i] = nanCode
			continue
		}
		g, ok := remap[v]
		if !ok {
			g = next
			next++
			remap[v] = g
		}
		out[i] = g
	}
	return out, int(next)
}
