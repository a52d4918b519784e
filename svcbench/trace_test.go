package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildInterval(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "parent", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Start: ms(20), End: ms(50)},  // overlaps 2: [10,50] counts once
		{ID: 4, Parent: 1, Start: ms(60), End: ms(70)},  // disjoint
		{ID: 5, Parent: 1, Start: ms(90), End: ms(120)}, // runs past the parent: [90,100]
		{ID: 6, Parent: 4, Start: ms(0), End: ms(100)},  // a grandchild is not a child
		{ID: 7, Parent: 9, Start: ms(0), End: ms(100)},  // another parent's child
	}
	if got, want := selfTime(spans[0], spans), ms(100-40-10-10); got != want {
		t.Fatalf("self time %v, want %v", got, want)
	}
	if got := selfTime(spans[3], spans); got != 0 {
		t.Fatalf("span fully covered by its child has self time %v, want 0", got)
	}
	if got := selfTime(spans[1], spans); got != ms(20) {
		t.Fatalf("leaf span self time %v, want its duration 20ms", got)
	}
}

func TestRecorderSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", 0, 7)
	child := r.timed("child", root, 7, func() { time.Sleep(2 * time.Millisecond) })
	r.end(root)
	rs, cs := r.get(root), r.get(child)
	if cs.Parent != root || cs.Req != 7 || rs.Req != 7 {
		t.Fatalf("child %+v of root %+v: wrong parent or request id", cs, rs)
	}
	if cs.Start < rs.Start || cs.End > rs.End || cs.dur() < 2*time.Millisecond {
		t.Fatalf("child %+v not inside root %+v", cs, rs)
	}
	if got := selfTime(rs, r.spans); got != rs.dur()-cs.dur() {
		t.Fatalf("root self time %v, want %v", got, rs.dur()-cs.dur())
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("ignored", 0, 0)) // a nil recorder records nothing
}
