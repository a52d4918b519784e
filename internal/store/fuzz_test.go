package store

import (
	"bytes"
	"testing"

	"scoded/internal/relation"
)

// parseSegment runs the segment parser over in-memory bytes and reads the
// whole segment as one window.
func parseSegment(data []byte) (*Segment, error) {
	r, err := newSegmentReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	return r.ReadWindow(0, r.Rows())
}

// FuzzSegment pins the parser's no-panic contract: arbitrary bytes must
// produce either a valid Segment or an error — never a panic or a
// length-driven absurd allocation. Decoded segments must satisfy the
// structural invariants the materializer relies on.
func FuzzSegment(f *testing.F) {
	rel := relation.MustNew(
		relation.NewCategoricalColumn("City", []string{"Oslo", "Lima", "Oslo"}),
		relation.NewNumericColumn("Temp", []float64{3.5, 18, -1.25}),
	)
	if seed, err := encodeSegment(rel, 0, rel.NumRows()); err == nil {
		f.Add(seed)
		// A truncated and a bit-flipped variant steer the fuzzer toward the
		// interesting prefixes.
		f.Add(seed[:len(seed)/2])
		flipped := append([]byte(nil), seed...)
		flipped[8] ^= 0xff
		f.Add(flipped)
	}
	f.Add([]byte(segmentMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := parseSegment(data)
		if err != nil {
			return
		}
		for _, col := range seg.Cols {
			switch col.Kind {
			case ColKindCategorical:
				if len(col.Codes) != seg.Rows {
					t.Fatalf("column %q: %d codes for %d rows", col.Name, len(col.Codes), seg.Rows)
				}
				for i, code := range col.Codes {
					if int(code) >= len(col.Dict) {
						t.Fatalf("column %q: code[%d]=%d outside dict of %d", col.Name, i, code, len(col.Dict))
					}
				}
			case ColKindNumeric:
				if len(col.Floats) != seg.Rows {
					t.Fatalf("column %q: %d floats for %d rows", col.Name, len(col.Floats), seg.Rows)
				}
			default:
				t.Fatalf("column %q: unknown kind %q", col.Name, col.Kind)
			}
		}
	})
}

// FuzzManifest pins the same contract for the JSON manifest: arbitrary
// bytes never panic, and anything that decodes re-encodes and decodes to
// an equally valid manifest.
func FuzzManifest(f *testing.F) {
	m := &Manifest{
		Format:  manifestFormat,
		Name:    "weather",
		Version: 2,
		Rows:    3,
		Schema:  []SchemaCol{{Name: "City", Kind: ColKindCategorical}},
		Segments: []SegmentInfo{
			{File: "seg-0000000000000002.bin", Rows: 3, Bytes: 64},
		},
	}
	if seed, err := encodeManifest(m); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{"format": 1}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"format": 1, "schema": [{"name": "a", "kind": "categorical"}], "segments": [{"file": "../../etc/passwd", "rows": 0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		out, err := encodeManifest(m)
		if err != nil {
			t.Fatalf("re-encoding a decoded manifest: %v", err)
		}
		if _, err := decodeManifest(out); err != nil {
			t.Fatalf("re-decoding a re-encoded manifest: %v", err)
		}
	})
}
