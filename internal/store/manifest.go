package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Column kinds as persisted in manifests and segments.
const (
	ColKindCategorical = "categorical"
	ColKindNumeric     = "numeric"
)

const manifestFormat = 1

// SchemaCol describes one column of a stored dataset.
type SchemaCol struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// SegmentInfo references one immutable segment file from a manifest.
type SegmentInfo struct {
	// File is the segment's file name within the dataset directory (never
	// a path).
	File string `json:"file"`
	// Rows is the segment's record count.
	Rows int `json:"rows"`
	// Bytes is the segment file's size, CRC trailer included.
	Bytes int64 `json:"bytes"`
}

// MonitorDef is a streaming monitor's durable definition: everything
// needed to re-arm it on restart. Its observations live in a separate
// observation log replayed after re-arming.
type MonitorDef struct {
	ID         int     `json:"id"`
	Kind       string  `json:"kind"`
	Alpha      float64 `json:"alpha"`
	Dependence bool    `json:"dependence,omitempty"`
	Window     int     `json:"window,omitempty"`
	// Dataset is the optional dataset binding; bound defs live in that
	// dataset's manifest, unbound ones in the root registry.
	Dataset string `json:"dataset,omitempty"`
	// Webhook is the optional per-monitor alert sink URL, POSTed to when
	// the monitor's verdict flips to violated.
	Webhook string `json:"webhook,omitempty"`
	// Observed is the total record count ever fed to the monitor — it can
	// exceed the replayed log when a windowed log has been compacted.
	Observed int64 `json:"observed,omitempty"`
}

// Manifest is the JSON index of one dataset directory. It is the unit of
// atomicity: every mutation writes the new segments first, then swaps in a
// manifest referencing them (write temp + fsync + rename + dir fsync), so
// a crash at any point leaves either the old or the new state, never a mix.
type Manifest struct {
	Format int    `json:"format"`
	Name   string `json:"name"`
	// Version increases monotonically with every data mutation (append or
	// replace). The kernel cache keys entries by it, which is what makes an
	// append invalidate only the entries whose rows actually changed.
	Version uint64 `json:"version"`
	// Rows is the total record count across all segments.
	Rows     int           `json:"rows"`
	Schema   []SchemaCol   `json:"schema"`
	Segments []SegmentInfo `json:"segments"`
	// Monitors holds the durable definitions of monitors bound to this
	// dataset.
	Monitors []MonitorDef `json:"monitors,omitempty"`
}

// ConstraintDef is a registered constraint's durable form — its canonical
// text rendering, re-parsed on boot.
type ConstraintDef struct {
	ID         int    `json:"id"`
	Constraint string `json:"constraint"`
}

// Registry is the store-wide JSON state that does not belong to any one
// dataset: the constraint registry, unbound monitors, and the id counters
// (persisted so restarts never reuse an id).
type Registry struct {
	Format         int             `json:"format"`
	NextConstraint int             `json:"next_constraint"`
	NextMonitor    int             `json:"next_monitor"`
	Constraints    []ConstraintDef `json:"constraints,omitempty"`
	Monitors       []MonitorDef    `json:"monitors,omitempty"`
}

// encodeManifest renders a manifest deterministically (stable field order,
// trailing newline) so goldens and byte-level comparisons are meaningful.
func encodeManifest(m *Manifest) ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: encoding manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// decodeManifest parses and validates a manifest. Like the segment parser it
// must never panic on arbitrary bytes (FuzzManifest pins that): every
// structural invariant is checked and reported as an error.
func decodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: decoding manifest: %w", err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("store: unsupported manifest format %d", m.Format)
	}
	if len(m.Schema) == 0 {
		return nil, fmt.Errorf("store: manifest %q has no schema", m.Name)
	}
	seen := make(map[string]bool, len(m.Schema))
	for _, c := range m.Schema {
		if c.Kind != ColKindCategorical && c.Kind != ColKindNumeric {
			return nil, fmt.Errorf("store: column %q has unknown kind %q", c.Name, c.Kind)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("store: duplicate schema column %q", c.Name)
		}
		seen[c.Name] = true
	}
	rows := 0
	for _, seg := range m.Segments {
		if seg.File == "" || seg.File != filepath.Base(seg.File) || strings.HasPrefix(seg.File, ".") {
			return nil, fmt.Errorf("store: manifest references invalid segment file %q", seg.File)
		}
		if seg.Rows < 0 {
			return nil, fmt.Errorf("store: segment %q has negative row count %d", seg.File, seg.Rows)
		}
		rows += seg.Rows
	}
	if rows != m.Rows {
		return nil, fmt.Errorf("store: manifest rows %d != segment total %d", m.Rows, rows)
	}
	return &m, nil
}

// writeFileAtomic durably replaces dir/name: write to a temp file in the
// same directory, fsync it, close it (checking the error — a close failure
// on a written file is data loss), rename over the target, and fsync the
// directory so the rename itself is durable. A crash at any point leaves
// either the old file or the new one, plus at worst a *.tmp orphan that
// recovery deletes.
func writeFileAtomic(dir, name string, data []byte) (err error) {
	f, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if _, err = f.Write(data); err != nil {
		_ = f.Close() // best-effort: the write error is the one that matters
		return err
	}
	if err = f.Sync(); err != nil {
		_ = f.Close() // best-effort: the sync error is the one that matters
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a preceding rename in it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
