package main

import (
	"slices"
	"testing"
	"time"
)

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {4, 0}, {99, 0}, // p90 of 99 has only 9 beyond
		{100, 0.9}, {999, 0.9},
		{1000, 0.99}, {1100, 0.99}, {9999, 0.99},
		{10000, 0.999}, {1 << 20, 0.999},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestBeyondCountsSamplesAboveTheRank(t *testing.T) {
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	if got := beyond(5, 0.5); got != 2 {
		t.Errorf("beyond(5, 0.5) = %d, want 2", got)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}, {1, 10},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestWindowedP99IgnoresOneStalledWindow(t *testing.T) {
	var xs []float64
	for w := 0; w < 3; w++ {
		for i := 0; i < 1000; i++ {
			xs = append(xs, float64(i%100)) // p99 of a clean window: 98 or 99
		}
	}
	for i := 0; i < 50; i++ {
		xs[1000+i] = 5000 // a stall inside the second window
	}
	xs = append(xs, 1, 2, 3) // the remainder joins the last window
	if got := windowedP99(xs, 1000); got > 99 {
		t.Errorf("windowedP99 = %v; one stalled window moved it", got)
	}
	if got := percentile(xs, 0.99); got != 5000 {
		t.Errorf("plain p99 = %v; the stall should set it", got)
	}
	if got, want := windowedP99(xs[:1500], 1000), percentile(xs[:1500], 0.99); got != want {
		t.Errorf("one window: windowedP99 = %v, want the plain p99 %v", got, want)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestWindowP50sSplitsThePhaseByTime(t *testing.T) {
	start := time.Unix(0, 0)
	var ends []time.Time
	var lat []float64
	add := func(at time.Duration, ms float64) {
		ends = append(ends, start.Add(at))
		lat = append(lat, ms)
	}
	// Three 100 ms windows of reads taking 1, 3 and 2 ms; the read that
	// ends the phase at 300 ms joins the last window.
	for w, ms := range []float64{1, 3, 2} {
		for i := range 10 {
			add(time.Duration(w*100+i*10)*time.Millisecond, ms)
		}
	}
	add(300*time.Millisecond, 2)
	if got := windowP50s(start, ends, lat, 100*time.Millisecond); !slices.Equal(got, []float64{1, 3, 2}) {
		t.Errorf("windowP50s = %v, want [1 3 2]", got)
	}
	// Under two full windows: the median of the whole phase.
	if got := windowP50s(start, ends[:15], lat[:15], 100*time.Millisecond); !slices.Equal(got, []float64{1}) {
		t.Errorf("one window: windowP50s = %v, want [1]", got)
	}
	if got := windowP50s(start, nil, nil, time.Second); len(got) != 0 {
		t.Errorf("no reads: windowP50s = %v, want none", got)
	}
}

func TestPhaseRateCountsTheWholePhase(t *testing.T) {
	start := time.Unix(0, 0)
	// 150 completions in 400 ms, a stall included: 375/s.
	if got := phaseRate(start, start.Add(400*time.Millisecond), 150); got != 375 {
		t.Errorf("phaseRate = %v/s, want 375/s", got)
	}
}
