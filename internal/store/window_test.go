package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scoded/internal/relation"
)

// flattenSegment renders a segment's rows as strings so differently
// chunked reads can be compared value-for-value.
func flattenSegment(seg *Segment) []string {
	rows := make([]string, seg.Rows)
	for i := 0; i < seg.Rows; i++ {
		var sb strings.Builder
		for ci, c := range seg.Cols {
			if ci > 0 {
				sb.WriteByte('|')
			}
			if c.Kind == ColKindCategorical {
				sb.WriteString(c.Dict[c.Codes[i]])
			} else {
				fmt.Fprintf(&sb, "%x", c.Floats[i])
			}
		}
		rows[i] = sb.String()
	}
	return rows
}

// TestScanChunksMatchesUploadedRelation scans a two-segment dataset at
// several window sizes and requires the rows of the relations written to
// it, in order. A scan of the manifest read before the append still
// delivers only the first relation's rows.
func TestScanChunksMatchesUploadedRelation(t *testing.T) {
	s := openStore(t, t.TempDir())
	rel, batch := testRel(t), testBatch(t)
	pinned, err := s.Replace("weather", rel)
	if err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if _, err := s.Append("weather", batch); err != nil {
		t.Fatalf("Append: %v", err)
	}

	var want []string
	for _, r := range []*relation.Relation{rel, batch} {
		for i := 0; i < r.NumRows(); i++ {
			var sb strings.Builder
			for ci, name := range r.Columns() {
				if ci > 0 {
					sb.WriteByte('|')
				}
				if c := r.MustColumn(name); c.Kind == relation.Categorical {
					sb.WriteString(c.StringAt(i))
				} else {
					fmt.Fprintf(&sb, "%x", c.Value(i))
				}
			}
			want = append(want, sb.String())
		}
	}
	if len(want) != 8 {
		t.Fatalf("uploaded %d rows, want 8", len(want))
	}

	for _, maxRows := range []int{0, 1, 3, 100} {
		var got []string
		windows := 0
		err := s.ScanChunks(context.Background(), "weather", maxRows, func(seg *Segment) error {
			windows++
			got = append(got, flattenSegment(seg)...)
			return nil
		})
		if err != nil {
			t.Fatalf("ScanChunks(maxRows=%d): %v", maxRows, err)
		}
		if len(got) != len(want) {
			t.Fatalf("maxRows=%d: %d rows, want %d", maxRows, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("maxRows=%d row %d: %q want %q", maxRows, i, got[i], want[i])
			}
		}
		if maxRows == 3 && windows != 3 {
			// 6-row segment in windows of 3, plus the 2-row append segment.
			t.Fatalf("maxRows=3: %d windows, want 3", windows)
		}
		if maxRows == 1 && windows != 8 {
			t.Fatalf("maxRows=1: %d windows, want 8", windows)
		}
	}

	var old []string
	if err := s.ScanManifest(context.Background(), pinned, 4, func(seg *Segment) error {
		old = append(old, flattenSegment(seg)...)
		return nil
	}); err != nil {
		t.Fatalf("ScanManifest: %v", err)
	}
	if strings.Join(old, "\n") != strings.Join(want[:rel.NumRows()], "\n") {
		t.Fatalf("pinned scan: %q, want %q", old, want[:rel.NumRows()])
	}
}

func TestScanChunksContextCancel(t *testing.T) {
	s := openStore(t, t.TempDir())
	if _, err := s.Replace("weather", testRel(t)); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.ScanChunks(ctx, "weather", 2, func(seg *Segment) error {
		t.Fatal("fn must not run after cancellation")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// segmentPaths returns the dataset's segment files in manifest order.
func segmentPaths(t *testing.T, s *Store, name string) []string {
	t.Helper()
	m, err := s.Manifest(name)
	if err != nil {
		t.Fatalf("Manifest: %v", err)
	}
	dir := filepath.Join(s.Dir(), datasetDir(name))
	paths := make([]string, len(m.Segments))
	for i, si := range m.Segments {
		paths[i] = filepath.Join(dir, si.File)
	}
	return paths
}

func TestScanChunksDetectsCorruption(t *testing.T) {
	s := openStore(t, t.TempDir())
	if _, err := s.Replace("weather", testRel(t)); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	path := segmentPaths(t, s, "weather")[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = s.ScanChunks(context.Background(), "weather", 2, func(seg *Segment) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("got %v, want checksum mismatch", err)
	}
}

func TestReadWindowBounds(t *testing.T) {
	s := openStore(t, t.TempDir())
	rel := testRel(t)
	if _, err := s.Replace("weather", rel); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	r, err := OpenSegment(segmentPaths(t, s, "weather")[0])
	if err != nil {
		t.Fatalf("OpenSegment: %v", err)
	}
	defer r.Close()
	if r.Rows() != rel.NumRows() {
		t.Fatalf("Rows %d want %d", r.Rows(), rel.NumRows())
	}
	for _, bad := range [][2]int{{-1, 2}, {0, r.Rows() + 1}, {3, 2}} {
		if _, err := r.ReadWindow(bad[0], bad[1]); err == nil {
			t.Fatalf("ReadWindow%v: want error", bad)
		}
	}
	// A mid-segment window must equal the same rows of a full decode.
	full, err := r.ReadWindow(0, r.Rows())
	if err != nil {
		t.Fatal(err)
	}
	mid, err := r.ReadWindow(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := flattenSegment(full)[2:5]
	gotRows := flattenSegment(mid)
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("row %d: %q want %q", i, gotRows[i], wantRows[i])
		}
	}
}
