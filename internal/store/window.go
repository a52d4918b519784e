package store

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Windowed segment reads (DESIGN.md section 16): a SegmentReader is the
// one segment parser. Opening one makes a single sequential buffered pass
// over the body that feeds the IEEE CRC-32 and parses the header and
// per-column dictionaries on the way, skipping the fixed-width code/float
// blocks; it then serves arbitrary row windows [lo, hi) with ReadAt
// against those blocks. Only the dictionaries and one window are ever
// resident, so a single oversized segment never forces a full
// materialization. The parser validates every length against the
// remaining input before allocating, so corrupt or adversarial bytes fail
// with an error instead of a panic or an absurd allocation (FuzzSegment
// pins that contract).

// crcChunkSize is the read buffer of the open pass.
const crcChunkSize = 256 << 10

// windowColumn is the in-memory header of one column block: everything
// except the fixed-width row data, plus where that data lives.
type windowColumn struct {
	name  string
	kind  string
	dict  []string // categorical only; shared read-only across windows
	off   int64    // offset of the first row's fixed-width datum
	width int64    // bytes per row: 4 (codes) or 8 (floats)
}

// SegmentReader serves row windows of one immutable segment.
// It is not safe for concurrent use; each scan owns its reader.
type SegmentReader struct {
	ra   io.ReaderAt // the opened file, or in-memory bytes in tests
	rows int
	cols []windowColumn
}

// OpenSegment opens path, verifies the whole-file checksum, and parses the
// header. The returned reader must be closed.
func OpenSegment(path string) (*SegmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	var r *SegmentReader
	if err == nil {
		r, err = newSegmentReader(f, fi.Size())
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// newSegmentReader verifies and parses the size-byte segment readable
// through ra. A checksum mismatch takes precedence over a parse error:
// corrupt bytes explain any malformed field they produce.
func newSegmentReader(ra io.ReaderAt, size int64) (*SegmentReader, error) {
	if size < int64(len(segmentMagic)+2+4+4+4) {
		return nil, fmt.Errorf("store: segment too short (%d bytes)", size)
	}
	h := crc32.NewIEEE()
	body := io.TeeReader(io.NewSectionReader(ra, 0, size-4), h)
	cur := &segmentCursor{br: bufio.NewReaderSize(body, crcChunkSize), limit: size - 4}
	sr, parseErr := parseSegmentHeader(cur)
	// Drain whatever the parse left so the checksum covers the whole body.
	if _, err := io.Copy(io.Discard, cur.br); err != nil {
		return nil, err
	}
	var trailer [4]byte
	if _, err := ra.ReadAt(trailer[:], size-4); err != nil {
		return nil, err
	}
	if got, want := binary.LittleEndian.Uint32(trailer[:]), h.Sum32(); got != want {
		return nil, fmt.Errorf("store: segment checksum mismatch (got %08x, want %08x)", got, want)
	}
	if parseErr != nil {
		return nil, parseErr
	}
	sr.ra = ra
	return sr, nil
}

// parseSegmentHeader reads the header and column blocks of a segment body,
// recording where each column's fixed-width rows live.
func parseSegmentHeader(cur *segmentCursor) (*SegmentReader, error) {
	magic, err := cur.read(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != segmentMagic {
		return nil, fmt.Errorf("store: bad segment magic %q", magic)
	}
	format, err := cur.u16()
	if err != nil {
		return nil, err
	}
	if format != segmentFormat {
		return nil, fmt.Errorf("store: unsupported segment format %d", format)
	}
	ncols, err := cur.u32()
	if err != nil {
		return nil, err
	}
	nrows, err := cur.u32()
	if err != nil {
		return nil, err
	}
	// A column block is at least 3 bytes (empty name + kind); bound the
	// declared counts by what the input could hold.
	if int64(ncols)*3 > cur.remaining() {
		return nil, fmt.Errorf("store: segment declares %d columns in %d bytes", ncols, cur.remaining())
	}
	sr := &SegmentReader{rows: int(nrows), cols: make([]windowColumn, 0, ncols)}
	for ci := uint32(0); ci < ncols; ci++ {
		nameLen, err := cur.u16()
		if err != nil {
			return nil, err
		}
		name, err := cur.str(int64(nameLen))
		if err != nil {
			return nil, err
		}
		kind, err := cur.u8()
		if err != nil {
			return nil, err
		}
		col := windowColumn{name: name}
		switch kind {
		case kindCategorical:
			col.kind = ColKindCategorical
			col.width = 4
			dictN, err := cur.u32()
			if err != nil {
				return nil, err
			}
			if int64(dictN)*4 > cur.remaining() {
				return nil, fmt.Errorf("store: column %q declares %d dictionary entries in %d bytes", col.name, dictN, cur.remaining())
			}
			col.dict = make([]string, 0, dictN)
			for di := uint32(0); di < dictN; di++ {
				vlen, err := cur.u32()
				if err != nil {
					return nil, err
				}
				v, err := cur.str(int64(vlen))
				if err != nil {
					return nil, err
				}
				col.dict = append(col.dict, v)
			}
		case kindNumeric:
			col.kind = ColKindNumeric
			col.width = 8
		default:
			return nil, fmt.Errorf("store: column %q has unknown kind %d", col.name, kind)
		}
		if int64(nrows)*col.width > cur.remaining() {
			return nil, fmt.Errorf("store: column %q declares %d rows in %d bytes", col.name, nrows, cur.remaining())
		}
		col.off = cur.off
		if err := cur.skip(int64(nrows) * col.width); err != nil {
			return nil, err
		}
		sr.cols = append(sr.cols, col)
	}
	if cur.remaining() != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after segment body", cur.remaining())
	}
	return sr, nil
}

// Rows is the segment's record count.
func (r *SegmentReader) Rows() int { return r.rows }

// Close releases the underlying file, if any.
func (r *SegmentReader) Close() error {
	if c, ok := r.ra.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// ReadWindow decodes rows [lo, hi) into a Segment. Dictionaries are shared
// (read-only) between windows of the same reader; code and float slices
// are freshly allocated per call, sized to the window.
func (r *SegmentReader) ReadWindow(lo, hi int) (*Segment, error) {
	if lo < 0 || hi > r.rows || lo > hi {
		return nil, fmt.Errorf("store: window [%d,%d) out of segment rows [0,%d)", lo, hi, r.rows)
	}
	n := hi - lo
	seg := &Segment{Rows: n, Cols: make([]SegmentColumn, 0, len(r.cols))}
	var buf []byte
	for _, c := range r.cols {
		need := int(int64(n) * c.width)
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		b := buf[:need]
		if _, err := r.ra.ReadAt(b, c.off+int64(lo)*c.width); err != nil {
			return nil, fmt.Errorf("store: column %q window read: %w", c.name, err)
		}
		col := SegmentColumn{Name: c.name, Kind: c.kind}
		if c.kind == ColKindCategorical {
			col.Dict = c.dict
			col.Codes = make([]uint32, n)
			for i := range col.Codes {
				code := binary.LittleEndian.Uint32(b[i*4:])
				if code >= uint32(len(c.dict)) {
					return nil, fmt.Errorf("store: column %q code %d out of dictionary range %d", c.name, code, len(c.dict))
				}
				col.Codes[i] = code
			}
		} else {
			col.Floats = make([]float64, n)
			for i := range col.Floats {
				col.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
			}
		}
		seg.Cols = append(seg.Cols, col)
	}
	return seg, nil
}

// segmentCursor is a bounds-checked sequential reader over a segment body
// (everything before the CRC trailer). Fixed-width fields and strings read
// through one reused scratch buffer.
type segmentCursor struct {
	br      *bufio.Reader
	off     int64
	limit   int64
	scratch []byte
}

func (c *segmentCursor) remaining() int64 { return c.limit - c.off }

// read returns the next n bytes, valid until the next call.
func (c *segmentCursor) read(n int64) ([]byte, error) {
	if n < 0 || n > c.remaining() {
		return nil, fmt.Errorf("store: truncated segment (need %d bytes, have %d)", n, c.remaining())
	}
	if int64(cap(c.scratch)) < n {
		c.scratch = make([]byte, n)
	}
	b := c.scratch[:n]
	if _, err := io.ReadFull(c.br, b); err != nil {
		return nil, err
	}
	c.off += n
	return b, nil
}

func (c *segmentCursor) skip(n int64) error {
	if _, err := c.br.Discard(int(n)); err != nil {
		return err
	}
	c.off += n
	return nil
}

func (c *segmentCursor) str(n int64) (string, error) {
	b, err := c.read(n)
	return string(b), err
}

func (c *segmentCursor) u8() (byte, error) {
	b, err := c.read(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (c *segmentCursor) u16() (uint16, error) {
	b, err := c.read(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (c *segmentCursor) u32() (uint32, error) {
	b, err := c.read(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// ScanChunks streams dataset name at its current manifest; see
// ScanManifest.
func (s *Store) ScanChunks(ctx context.Context, name string, maxRows int, fn func(*Segment) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	dir := filepath.Join(s.dir, datasetDir(name))
	m, err := readManifest(dir)
	if err != nil {
		return err
	}
	return scanManifest(ctx, dir, m, maxRows, fn)
}

// ScanManifest streams the rows of dataset m.Name exactly as manifest m
// lists them, as row windows of at most maxRows rows each (maxRows <= 0
// means one window per segment), in segment order and row order within
// each segment. Each window is a self-contained *Segment with per-segment
// dense dictionaries. Pinning the manifest is what lets a multi-pass
// reader see one version: segments are immutable and an append only adds
// new ones, so repeated scans of one manifest deliver the same rows while
// appends land. The context is checked between windows.
func (s *Store) ScanManifest(ctx context.Context, m *Manifest, maxRows int, fn func(*Segment) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return scanManifest(ctx, filepath.Join(s.dir, datasetDir(m.Name)), m, maxRows, fn)
}

// scanManifest is the one scan every reader of stored rows goes through:
// Load, LoadLog, Verify, Compact, ScanChunks and ScanManifest. It checks
// each segment's row count against the manifest and its columns against
// the manifest schema.
func scanManifest(ctx context.Context, dir string, m *Manifest, maxRows int, fn func(*Segment) error) error {
	for _, si := range m.Segments {
		if err := scanSegment(ctx, filepath.Join(dir, si.File), si, m.Schema, maxRows, fn); err != nil {
			return err
		}
	}
	return nil
}

// scanSegment opens one segment and feeds its windows to fn. Split out of
// scanManifest so the reader's Close is a straight defer rather than a
// defer in a loop. A zero-row segment is delivered as one empty window.
func scanSegment(ctx context.Context, path string, si SegmentInfo, schema []SchemaCol, maxRows int, fn func(*Segment) error) error {
	r, err := OpenSegment(path)
	if err != nil {
		return fmt.Errorf("store: segment %s: %w", si.File, err)
	}
	defer r.Close()
	if r.Rows() != si.Rows {
		return fmt.Errorf("store: segment %s holds %d rows, manifest says %d", si.File, r.Rows(), si.Rows)
	}
	if len(r.cols) != len(schema) {
		return fmt.Errorf("store: segment %s has %d columns, schema has %d", si.File, len(r.cols), len(schema))
	}
	for i, c := range r.cols {
		if want := schema[i]; c.name != want.Name || c.kind != want.Kind {
			return fmt.Errorf("store: segment %s column %d is %s %q, schema has %s %q",
				si.File, i, c.kind, c.name, want.Kind, want.Name)
		}
	}
	step := maxRows
	if step <= 0 {
		step = r.Rows()
	}
	lo := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(lo+step, r.Rows())
		seg, err := r.ReadWindow(lo, hi)
		if err != nil {
			return fmt.Errorf("store: segment %s: %w", si.File, err)
		}
		if err := fn(seg); err != nil {
			return err
		}
		if lo = hi; lo >= r.Rows() {
			return nil
		}
	}
}
