package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		// Two children run concurrently over [10,40] and [30,60]: their
		// union covers 50 ms, not 60.
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(60)},
		// A child nested inside another adds nothing to the union.
		{ID: 4, Parent: 1, Name: "c", Start: ms(35), End: ms(38)},
		// A disjoint child.
		{ID: 5, Parent: 1, Name: "d", Start: ms(70), End: ms(80)},
		// A grandchild counts against its parent only.
		{ID: 6, Parent: 5, Name: "e", Start: ms(72), End: ms(75)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(40), 2: ms(30), 3: ms(30), 4: ms(3), 5: ms(7), 6: ms(3)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	// A child that outlives its parent (work handed off and finished
	// later) covers only the parent's own interval.
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(50)},
		{ID: 2, Parent: 1, Name: "late", Start: ms(40), End: ms(90)},
	}
	if got := selfTimes(spans)[1]; got != ms(40) {
		t.Errorf("self = %v, want 40ms", got)
	}
}

func TestSelfByNameSumsAcrossSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: ms(0), End: ms(30)},
		{ID: 2, Parent: 1, Name: "work", Start: ms(0), End: ms(10)},
		{ID: 3, Parent: 1, Name: "work", Start: ms(15), End: ms(25)},
	}
	got := selfByName(spans)
	if got["work"] != ms(20) || got["pass"] != ms(10) {
		t.Errorf("selfByName = %v", got)
	}
}

func TestTracerRecordsParentsAndRequests(t *testing.T) {
	tr := newTracer()
	root := tr.start(0, "root")
	child := tr.startReq(root, "req", 42)
	open := tr.start(root, "unfinished")
	tr.end(child)
	tr.end(root)
	spans := tr.closed()
	if len(spans) != 2 {
		t.Fatalf("closed spans = %d, want 2 (unfinished span %d excluded)", len(spans), open)
	}
	if spans[1].Parent != root || spans[1].Req != 42 || spans[1].End < spans[1].Start {
		t.Errorf("child span = %+v", spans[1])
	}

	var none *tracer
	if id := none.start(0, "x"); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	none.end(0)
}
