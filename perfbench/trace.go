package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// Span is one timed interval of a traced operation. Spans of one
// operation (a delta, a resolve, an HTTP round or read) share Op; a root
// span has Parent 0. Times are nanoseconds since the tracer's epoch.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced code paths pay only a nil check.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// ns converts a wall-clock instant to tracer time.
func (t *Tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a span and returns its ID (0 on a nil tracer).
func (t *Tracer) add(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	return t.addNS(op, parent, name, t.ns(start), t.ns(end))
}

func (t *Tracer) addNS(op, parent int, name string, start, end int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// snapshot returns a copy of the recorded spans.
func (t *Tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write stores the spans as JSON in path.
func (t *Tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time — its duration minus the part
// of its interval its child spans cover — keyed by span ID. Overlapping
// children are counted once, and child time outside the parent's
// interval is ignored.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent Span, kids []Span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, end int64
	end = parent.Start
	for _, x := range iv {
		lo := max(x[0], end)
		if x[1] > lo {
			total += x[1] - lo
			end = x[1]
		}
	}
	return total
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}

// stageSpan is one engine stage laid out on the tracer clock.
type stageSpan struct {
	name       string
	start, end int64
	id         int
}

// layStages records one child span per engine stage under parent. The
// engine reports stage durations, not start times, and runs one
// resolve's stages back to back, so the spans are laid end to end from
// the parent's start; the parent's remaining time is engine overhead.
func (t *Tracer) layStages(op, parent int, start time.Time, stages []stage) []stageSpan {
	if t == nil {
		return nil
	}
	at := t.ns(start)
	out := make([]stageSpan, 0, len(stages))
	for _, st := range stages {
		end := at + int64(st.seconds*1e9)
		out = append(out, stageSpan{name: st.name, start: at, end: end, id: t.addNS(op, parent, st.name, at, end)})
		at = end
	}
	return out
}

// stage is one engine stage's name and wall time, as Result.Stages
// reports them.
type stage struct {
	name    string
	seconds float64
}

// parentAt returns the ID of the laid-out stage whose interval holds
// instant ns, or fallback when none does.
func parentAt(stages []stageSpan, ns int64, fallback int) int {
	for _, s := range stages {
		if ns >= s.start && ns < s.end {
			return s.id
		}
	}
	return fallback
}
