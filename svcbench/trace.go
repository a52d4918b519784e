package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request or
// replay iteration share Req; Parent is the ID of the span that caused it
// (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder records
// nothing, so untimed code paths can call it unconditionally.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed runs fn inside a span and returns the span's ID.
func (r *recorder) timed(name string, parent, req int, fn func()) int {
	id := r.begin(name, parent, req)
	fn()
	r.end(id)
	return id
}

func (r *recorder) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// durations returns the duration of every closed span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval covered by
// its direct children. Overlapping children (parallel work) count once, and
// a child running past its parent counts only inside the parent.
func selfTime(parent span, all []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var kids []iv
	for _, s := range all {
		if s.Parent != parent.ID || s.ID == parent.ID {
			continue
		}
		lo, hi := max(s.Start, parent.Start), min(s.End, parent.End)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	var covered, curLo, curHi time.Duration
	open := false
	for _, k := range kids {
		switch {
		case !open:
			curLo, curHi, open = k.lo, k.hi, true
		case k.lo <= curHi:
			curHi = max(curHi, k.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = k.lo, k.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	return errors.Join(err, f.Close())
}
