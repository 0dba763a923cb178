package main

import (
	"testing"

	"github.com/crowder/crowder"
)

func TestShuffledKeepsRowsSourcesAndTruthTogether(t *testing.T) {
	in := &input{schema: []string{"name"}, truth: map[crowder.Pair]bool{}}
	for i, v := range []string{"a", "b", "c", "d", "e", "f"} {
		in.rows = append(in.rows, []string{v})
		in.src = append(in.src, i%2)
	}
	in.addTruth(0, 2) // a = c
	in.addTruth(5, 1) // f = b
	out := in.shuffled(7)
	if len(out.rows) != len(in.rows) || len(out.src) != len(in.src) || len(out.oracle) != 2 {
		t.Fatalf("shuffled sizes: rows %d, src %d, oracle %d", len(out.rows), len(out.src), len(out.oracle))
	}
	pos := map[string]int{}
	for i, row := range out.rows {
		pos[row[0]] = i
		if want := map[string]int{"a": 0, "b": 1, "c": 0, "d": 1, "e": 0, "f": 1}[row[0]]; out.src[i] != want {
			t.Errorf("row %q has source %d, want %d", row[0], out.src[i], want)
		}
	}
	for _, pr := range [][2]string{{"a", "c"}, {"f", "b"}} {
		a, b := min(pos[pr[0]], pos[pr[1]]), max(pos[pr[0]], pos[pr[1]])
		if !out.truth[crowder.Pair{A: a, B: b}] {
			t.Errorf("truth lost the pair %s=%s", pr[0], pr[1])
		}
	}
	if again := in.shuffled(7); again.rows[0][0] != out.rows[0][0] || again.rows[5][0] != out.rows[5][0] {
		t.Error("the same seed gave another order")
	}
}

func TestScoreCountsAcceptedMatchesAgainstTheTruthInRange(t *testing.T) {
	in := &input{truth: map[crowder.Pair]bool{}}
	in.addTruth(0, 1)
	in.addTruth(2, 3)
	in.addTruth(4, 9) // record 9 is beyond the scored prefix
	ms := []crowder.Match{
		{Pair: crowder.Pair{A: 0, B: 1}, Confidence: 0.9}, // tp
		{Pair: crowder.Pair{A: 1, B: 2}, Confidence: 0.6}, // fp
		{Pair: crowder.Pair{A: 2, B: 3}, Confidence: 0.4}, // rejected: fn
	}
	c := in.score(ms, 5)
	if c != (counts{tp: 1, fp: 1, fn: 1}) {
		t.Fatalf("counts = %+v, want 1 tp, 1 fp, 1 fn", c)
	}
	if got := c.f1(); got != 0.5 {
		t.Errorf("F1 = %v, want 0.5", got)
	}
}

func TestReadLibraryCountsEveryRead(t *testing.T) {
	r := newRun("test", 1, 0, false, "")
	res := &crowder.Result{Matches: []crowder.Match{
		{Pair: crowder.Pair{A: 0, B: 1}, Confidence: 0.9},
		{Pair: crowder.Pair{A: 1, B: 2}, Confidence: 0.2},
	}}
	r.readLibrary(res)
	if r.attempted < libraryMinReads || r.failed != 0 {
		t.Errorf("attempted %d, failed %d; want ≥ %d, 0", r.attempted, r.failed, libraryMinReads)
	}
	if r.values["read_p50_ms"] <= 0 || r.values["read_p99_ms"] < r.values["read_p50_ms"] || r.values["read_rps"] <= 0 {
		t.Errorf("read metrics = p50 %v, p99 %v, rps %v", r.values["read_p50_ms"], r.values["read_p99_ms"], r.values["read_rps"])
	}
}
