package kernel

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"scoded/internal/relation"
	"scoded/internal/stats"
	"scoded/internal/store"
)

// The streaming build path (DESIGN.md section 16): instead of requiring a
// materialized relation.Relation, a Streamer consumes a dataset as a
// sequence of store segments (or sub-segment windows) and accumulates
// per-stratum sufficient statistics — contingency-table partials for
// G-tests, Kendall concordance partials for tau — merging them across
// chunks. One Run folds every requested statistic in a single scan: each
// chunk is decoded once, grouped once per distinct conditioning set, and
// every job reads that grouping.
//
// Coding mirrors CodesFor exactly: categorical values get dense codes in
// first-occurrence order over the stratum's rows (chunks arrive in row
// order and each stratum's rows are visited in row order, so the order is
// the same), and numeric columns destined for a contingency table are
// buffered per stratum so quantile bin edges are computed over the full
// stratum, just like the resident path. Each chunk is grouped by its Z
// codes through relation.GroupIDs, the core of GroupByFlat, and only each
// group's first row renders its stratum key in relation.RowKey form, so
// stratum keys are byte-identical to PartitionOf's.

// StreamColumn describes one column of a streamed dataset.
type StreamColumn struct {
	Name string
	Kind relation.Kind
}

// StreamSource describes a dataset that can be scanned as segment chunks.
// Scan must deliver every row exactly once, in row order, as
// self-contained segments (store.ScanManifest semantics).
type StreamSource struct {
	Columns []StreamColumn
	Rows    int
	Scan    func(ctx context.Context, fn func(*store.Segment) error) error
}

// StoreSource is the StreamSource of a stored dataset pinned at manifest
// m: the schema, Rows and every Scan pass come from m, in windows of at
// most maxRows rows (<= 0: whole segments). A run therefore sees one
// version even while appends land.
func StoreSource(st *store.Store, m *store.Manifest, maxRows int) StreamSource {
	cols := make([]StreamColumn, len(m.Schema))
	for i, c := range m.Schema {
		kind := relation.Numeric
		if c.Kind == store.ColKindCategorical {
			kind = relation.Categorical
		}
		cols[i] = StreamColumn{Name: c.Name, Kind: kind}
	}
	return StreamSource{
		Columns: cols,
		Rows:    m.Rows,
		Scan: func(ctx context.Context, fn func(*store.Segment) error) error {
			return st.ScanManifest(ctx, m, maxRows, fn)
		},
	}
}

// Streamer runs statistic scans over a StreamSource. It is stateless
// between runs and safe for sequential reuse.
type Streamer struct {
	src  StreamSource
	kind map[string]relation.Kind
}

// NewStreamer validates the source and returns a Streamer.
func NewStreamer(src StreamSource) (*Streamer, error) {
	if src.Scan == nil {
		return nil, fmt.Errorf("kernel: stream source has no scan function")
	}
	kind := make(map[string]relation.Kind, len(src.Columns))
	for _, c := range src.Columns {
		if _, dup := kind[c.Name]; dup {
			return nil, fmt.Errorf("kernel: stream source repeats column %q", c.Name)
		}
		kind[c.Name] = c.Kind
	}
	return &Streamer{src: src, kind: kind}, nil
}

// Rows is the dataset's total row count.
func (s *Streamer) Rows() int { return s.src.Rows }

// ColumnKind reports a column's kind and whether the column exists.
func (s *Streamer) ColumnKind(name string) (relation.Kind, bool) {
	k, ok := s.kind[name]
	return k, ok
}

// StreamJob is one statistic a Run accumulates per stratum of Z (empty Z:
// one marginal stratum): Kendall concordance partials of numeric columns
// X and Y, or contingency tables of X versus Y with numeric sides
// quantile-binned into Bins.
type StreamJob struct {
	Z       []string
	X, Y    string
	Kendall bool
	Bins    int
}

// StreamStratum holds one stratum's finalized statistics: its row count
// and either a contingency table (table jobs) or a Kendall partial
// (Kendall jobs).
type StreamStratum struct {
	Size    int
	Table   stats.Table
	Kendall *stats.KendallPartial
}

// StreamResult holds one job's strata in sorted key order (relation.RowKey
// form, same bytes as Partition keys). A marginal job has the single key
// "" unless the dataset is empty.
type StreamResult struct {
	Keys   []string
	Strata []StreamStratum
}

// Run folds every job in one Scan pass and returns the results in job
// order. Tables are bit-identical to TableFromCodes over CodesFor of a
// resident relation, Kendall partials to the resident concordance counts.
// All jobs' accumulators are live for the whole pass; the chunk scratch is
// shared.
func (s *Streamer) Run(ctx context.Context, jobs []StreamJob) ([]*StreamResult, error) {
	p, err := s.plan(jobs)
	if err != nil {
		return nil, err
	}
	err = s.src.Scan(ctx, func(seg *store.Segment) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return p.fold(seg)
	})
	if err != nil {
		return nil, err
	}
	if p.seen != s.src.Rows {
		return nil, fmt.Errorf("kernel: stream delivered %d rows, source declares %d", p.seen, s.src.Rows)
	}
	return p.finalize(), nil
}

// streamPlan is one Run's state: the columns its jobs read, the jobs
// grouped by conditioning set, and chunk scratch reused across chunks.
type streamPlan struct {
	names []string               // columns the jobs read
	kinds []relation.Kind        // schema kind per names entry
	cols  []*store.SegmentColumn // the current chunk's column per names entry
	coded []codedColumn          // per names entry, for categorical table sides
	zs    []*zGroup
	jobs  int
	seen  int    // rows consumed, checked against the source's Rows
	chunk uint32 // chunks folded so far

	perm   []int32   // chunk rows ordered by slot, stable
	gx, gy []float64 // one slot's gathered numeric values
}

// zGroup is the strata of one conditioning set and the jobs that read
// them. Per chunk, rows are grouped once and ordered by slot — the
// chunk's strata in first-seen order — so each stratum's rows form one
// contiguous, row-ordered run of perm that every job reads.
type zGroup struct {
	z      []int // names indexes
	cat    []int // names indexes of categorical table sides
	keys   []string
	index  map[string]int32
	sizes  []int
	coders [][]*streamCoder // per names entry in cat, per stratum
	jobs   []*planJob

	mark  []uint32 // per stratum: the chunk that last gave it a slot
	slot  []int32  // per stratum: its slot in that chunk
	slots []int32  // this chunk's slots: stratum per slot
	offs  []int32  // slot s owns perm[offs[s]:offs[s+1]]
}

// planJob accumulates one job per stratum.
type planJob struct {
	StreamJob
	out        int // index in Run's jobs and results
	x, y       int // names indexes
	xCat, yCat bool
	strata     []*jobStratum
}

// jobStratum accumulates one job within one stratum. Exactly one
// representation is active: a Kendall partial, an online table when both
// sides are categorical, or buffered codes / raw floats so numeric sides
// can be quantile-binned over the whole stratum at finalize.
type jobStratum struct {
	kendall        *stats.KendallPartial
	table          *stats.TablePartial
	codesX, codesY []int32
	bufX, bufY     []float64
}

func (s *Streamer) plan(jobs []StreamJob) (*streamPlan, error) {
	p := &streamPlan{jobs: len(jobs)}
	ids := make(map[string]int)
	col := func(name string) (int, error) {
		if id, ok := ids[name]; ok {
			return id, nil
		}
		kind, ok := s.kind[name]
		if !ok {
			return 0, fmt.Errorf("kernel: stream source has no column %q", name)
		}
		ids[name] = len(p.names)
		p.names = append(p.names, name)
		p.kinds = append(p.kinds, kind)
		return len(p.names) - 1, nil
	}
	groups := make(map[string]*zGroup)
	for out, job := range jobs {
		j := &planJob{StreamJob: job, out: out}
		z := make([]int, len(job.Z))
		for i, name := range job.Z {
			id, err := col(name)
			if err != nil {
				return nil, err
			}
			z[i] = id
		}
		var err error
		if j.x, err = col(job.X); err != nil {
			return nil, err
		}
		if j.y, err = col(job.Y); err != nil {
			return nil, err
		}
		j.xCat = p.kinds[j.x] == relation.Categorical
		j.yCat = p.kinds[j.y] == relation.Categorical
		if job.Kendall && (j.xCat || j.yCat) {
			return nil, fmt.Errorf("kernel: Kendall stream needs numeric columns, got %s %s", p.kinds[j.x], p.kinds[j.y])
		}
		zkey := strings.Join(job.Z, "\x1f")
		g, ok := groups[zkey]
		if !ok {
			g = &zGroup{z: z, index: make(map[string]int32)}
			groups[zkey] = g
			p.zs = append(p.zs, g)
		}
		g.jobs = append(g.jobs, j)
		for _, id := range []int{j.x, j.y} {
			if !job.Kendall && p.kinds[id] == relation.Categorical && !slices.Contains(g.cat, id) {
				g.cat = append(g.cat, id)
			}
		}
	}
	p.cols = make([]*store.SegmentColumn, len(p.names))
	p.coded = make([]codedColumn, len(p.names))
	for _, g := range p.zs {
		g.coders = make([][]*streamCoder, len(p.names))
	}
	return p, nil
}

// fold consumes one chunk: per conditioning set, group and order its rows
// once, then walk the strata, coding each categorical column once per
// stratum and folding every job of the set.
func (p *streamPlan) fold(seg *store.Segment) error {
	for i, name := range p.names {
		c, err := chunkColumn(seg, name, p.kinds[i])
		if err != nil {
			return err
		}
		p.cols[i] = c
	}
	p.chunk++
	for _, g := range p.zs {
		p.group(g, seg.Rows)
		for _, id := range g.cat {
			p.coded[id].resize(len(p.cols[id].Dict))
		}
		for s, st := range g.slots {
			run := p.perm[g.offs[s]:g.offs[s+1]]
			for _, id := range g.cat {
				p.coded[id].code(p.cols[id], run, g.coders[id][st])
			}
			for _, j := range g.jobs {
				p.foldJob(j, j.strata[st], run)
			}
		}
	}
	p.seen += seg.Rows
	return nil
}

func chunkColumn(seg *store.Segment, name string, kind relation.Kind) (*store.SegmentColumn, error) {
	for i := range seg.Cols {
		if seg.Cols[i].Name != name {
			continue
		}
		c := &seg.Cols[i]
		wantCat := kind == relation.Categorical
		if gotCat := c.Kind == store.ColKindCategorical; gotCat != wantCat {
			return nil, fmt.Errorf("kernel: stream chunk column %q is %s, schema says %s", name, c.Kind, kind)
		}
		return c, nil
	}
	return nil, fmt.Errorf("kernel: stream chunk lacks column %q", name)
}

// group assigns the chunk's rows to g's strata, creating the state of
// strata seen for the first time, and orders the rows by slot into p.perm
// with a stable counting sort.
func (p *streamPlan) group(g *zGroup, rows int) {
	zCols := make([]*store.SegmentColumn, len(g.z))
	for i, id := range g.z {
		zCols[i] = p.cols[id]
	}
	gids, first := chunkGroups(rows, zCols)

	// Resolve each chunk-local group to its stratum through the key its
	// first row renders. Two groups render one key only when a value holds
	// the key separator; they share a slot, so the stratum's rows stay in
	// row order.
	local := make([]int32, len(first))
	g.slots = g.slots[:0]
	for l, row := range first {
		key := stratumKey(zCols, row)
		st, ok := g.index[key]
		if !ok {
			st = g.newStratum(key)
		}
		if g.mark[st] != p.chunk {
			g.mark[st] = p.chunk
			g.slot[st] = int32(len(g.slots))
			g.slots = append(g.slots, st)
		}
		local[l] = g.slot[st]
	}

	n := len(g.slots)
	g.offs = append(g.offs[:0], make([]int32, n+1)...)
	for _, l := range gids {
		g.offs[local[l]+1]++
	}
	for s := 0; s < n; s++ {
		g.offs[s+1] += g.offs[s]
		g.sizes[g.slots[s]] += int(g.offs[s+1] - g.offs[s])
	}
	p.perm = append(p.perm[:0], make([]int32, rows)...)
	next := append([]int32(nil), g.offs[:n]...)
	for i, l := range gids {
		s := local[l]
		p.perm[next[s]] = int32(i)
		next[s]++
	}
}

// newStratum registers a stratum and every job's accumulator for it.
func (g *zGroup) newStratum(key string) int32 {
	st := int32(len(g.keys))
	g.index[key] = st
	g.keys = append(g.keys, key)
	g.sizes = append(g.sizes, 0)
	g.mark = append(g.mark, 0)
	g.slot = append(g.slot, 0)
	for _, id := range g.cat {
		g.coders[id] = append(g.coders[id], &streamCoder{codes: make(map[string]int32)})
	}
	for _, j := range g.jobs {
		js := &jobStratum{}
		switch {
		case j.Kendall:
			js.kendall = stats.NewKendallPartial()
		case j.xCat && j.yCat:
			js.table = &stats.TablePartial{}
		}
		j.strata = append(j.strata, js)
	}
	return st
}

// foldJob folds one stratum's run of the current chunk into job j.
// Categorical sides read the run's codes from p.coded.
func (p *streamPlan) foldJob(j *planJob, js *jobStratum, run []int32) {
	x, y := p.cols[j.x], p.cols[j.y]
	switch {
	case j.Kendall:
		p.gx, p.gy = gather(p.gx, x, run), gather(p.gy, y, run)
		js.kendall.Append(p.gx, p.gy)
	case j.xCat && j.yCat:
		js.table.Observe(p.coded[j.x].codes, p.coded[j.y].codes)
	default:
		if j.xCat {
			js.codesX = append(js.codesX, p.coded[j.x].codes...)
		} else {
			js.bufX = append(js.bufX, gather(p.gx, x, run)...)
		}
		if j.yCat {
			js.codesY = append(js.codesY, p.coded[j.y].codes...)
		} else {
			js.bufY = append(js.bufY, gather(p.gy, y, run)...)
		}
	}
}

// gather copies a numeric column's values at rows into buf, reusing its
// storage.
func gather(buf []float64, c *store.SegmentColumn, rows []int32) []float64 {
	buf = buf[:0]
	for _, i := range rows {
		buf = append(buf, c.Floats[i])
	}
	return buf
}

// streamCoder assigns dense int32 codes to categorical values in
// first-occurrence order — the same codes CodesFor computes over the
// stratum's row subset of a materialized relation.
type streamCoder struct {
	codes map[string]int32
	next  int32
}

func (c *streamCoder) code(v string) int32 {
	if code, ok := c.codes[v]; ok {
		return code
	}
	code := c.next
	c.next++
	c.codes[v] = code
	return code
}

// codedColumn holds one categorical column's stratum codes for the
// current run of rows. remap maps the chunk's dictionary codes to the
// stratum's codes; its entries are stamped with an epoch that each run
// advances, so moving to the next stratum costs nothing, and the
// stratum's coder is consulted only the first time a run meets a
// dictionary entry, which keeps its first-occurrence order exact.
type codedColumn struct {
	remap []remapEntry
	epoch uint32
	codes []int32
}

type remapEntry struct {
	epoch uint32
	code  int32
}

// resize makes room for a dictionary of n entries.
func (c *codedColumn) resize(n int) {
	if len(c.remap) < n {
		c.remap = make([]remapEntry, n)
	}
}

// code fills c.codes with the stratum codes of col at rows.
func (c *codedColumn) code(col *store.SegmentColumn, rows []int32, sc *streamCoder) {
	c.epoch++
	if c.epoch == 0 {
		clear(c.remap)
		c.epoch = 1
	}
	c.codes = c.codes[:0]
	for _, i := range rows {
		d := col.Codes[i]
		e := &c.remap[d]
		if e.epoch != c.epoch {
			*e = remapEntry{epoch: c.epoch, code: sc.code(col.Dict[d])}
		}
		c.codes = append(c.codes, e.code)
	}
}

// chunkGroups groups a chunk's rows by their values on the Z columns
// through relation.GroupIDs: categorical columns contribute the segment's
// chunk-local dictionary codes, numeric ones relation.DenseFloatCodes (the
// equality rule GroupByFlat uses), so rows in one group render one
// stratum key.
func chunkGroups(rows int, zCols []*store.SegmentColumn) ([]int32, []int) {
	codes := make([][]int32, len(zCols))
	cards := make([]int, len(zCols))
	for j, c := range zCols {
		if c.Kind != store.ColKindCategorical {
			codes[j], cards[j] = relation.DenseFloatCodes(c.Floats)
			continue
		}
		codes[j] = make([]int32, rows)
		for i, v := range c.Codes {
			codes[j][i] = int32(v)
		}
		cards[j] = len(c.Dict)
	}
	return relation.GroupIDs(codes, cards, rows)
}

// stratumKey renders row i's stratum key exactly as relation.RowKey does,
// so streamed stratum keys match partition keys byte for byte.
func stratumKey(zCols []*store.SegmentColumn, i int) string {
	var b strings.Builder
	for j, c := range zCols {
		if j > 0 {
			b.WriteByte('\x1f')
		}
		if c.Kind == store.ColKindCategorical {
			b.WriteString(c.Dict[c.Codes[i]])
		} else {
			b.WriteString(relation.FormatFloat(c.Floats[i]))
		}
	}
	return b.String()
}

// finalize sorts each conditioning set's stratum keys and materializes
// every job's statistics, quantile-binning any buffered numeric columns
// over the full stratum exactly as the resident CodesFor path does.
func (p *streamPlan) finalize() []*StreamResult {
	out := make([]*StreamResult, p.jobs)
	for _, g := range p.zs {
		order := make([]int, len(g.keys))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return g.keys[order[a]] < g.keys[order[b]] })
		keys := make([]string, len(order))
		for i, st := range order {
			keys[i] = g.keys[st]
		}
		for _, j := range g.jobs {
			res := &StreamResult{Keys: keys, Strata: make([]StreamStratum, len(order))}
			for i, st := range order {
				res.Strata[i] = j.stratum(g, st)
			}
			out[j.out] = res
		}
	}
	return out
}

// stratum finalizes job j's statistics in stratum st of g.
func (j *planJob) stratum(g *zGroup, st int) StreamStratum {
	js := j.strata[st]
	out := StreamStratum{Size: g.sizes[st]}
	switch {
	case j.Kendall:
		out.Kendall = js.kendall
	case j.xCat && j.yCat:
		out.Table = js.table.Table()
	default:
		xCodes, kx := js.codesX, 0
		if j.xCat {
			kx = int(g.coders[j.x][st].next)
		} else {
			xCodes, kx = DiscretizeQuantile(js.bufX, j.Bins)
		}
		yCodes, ky := js.codesY, 0
		if j.yCat {
			ky = int(g.coders[j.y][st].next)
		} else {
			yCodes, ky = DiscretizeQuantile(js.bufY, j.Bins)
		}
		out.Table = stats.TableFromCodes(xCodes, yCodes, kx, ky)
	}
	return out
}
