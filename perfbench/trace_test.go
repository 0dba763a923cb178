package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "delta", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "prune", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "aggregate", Start: 20, End: 80},
		// Overlaps aggregate: the overlap counts once toward delta.
		{ID: 4, Parent: 1, Name: "store.log", Start: 70, End: 90},
		// Runs past its parent: only the part inside counts.
		{ID: 5, Parent: 2, Name: "store.log", Start: 5, End: 15},
		{ID: 6, Parent: 3, Name: "store.log", Start: 30, End: 40},
		{ID: 7, Parent: 3, Name: "store.log", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (10 + 70), // children cover [0,10) and [20,90)
		2: 10 - 5,
		3: 60 - 15, // [30,45) once
		4: 20, 5: 10, 6: 10, 7: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if got, want := byName["store.log"], float64(20+10+10+10)/1e6; got != want {
		t.Errorf("store.log self = %v ms, want %v", got, want)
	}
}

func TestLayStagesEndToEndFromTheParentStart(t *testing.T) {
	tr := newTracer()
	start := tr.epoch.Add(time.Millisecond)
	root := tr.add(1, 0, "delta", start, start.Add(10*time.Millisecond))
	st := tr.layStages(1, root, start, []stage{{"prune", 0.002}, {"aggregate", 0.005}})
	if len(st) != 2 || st[0].start != int64(time.Millisecond) || st[0].end != st[1].start ||
		st[1].end != int64(8*time.Millisecond) {
		t.Fatalf("laid-out stages = %+v", st)
	}
	if got := parentAt(st, int64(5*time.Millisecond), root); got != st[1].id {
		t.Errorf("parentAt inside aggregate = %d, want %d", got, st[1].id)
	}
	if got := parentAt(st, int64(9*time.Millisecond), root); got != root {
		t.Errorf("parentAt after the stages = %d, want the root %d", got, root)
	}
	self := selfByName(tr.snapshot())
	if self["delta"] != 3 {
		t.Errorf("engine overhead (delta self) = %v ms, want 3", self["delta"])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	if id := tr.add(1, 0, "x", time.Now(), time.Now()); id != 0 {
		t.Errorf("nil tracer returned span ID %d", id)
	}
	if tr.layStages(1, 0, time.Now(), []stage{{"prune", 1}}) != nil || tr.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}
}
