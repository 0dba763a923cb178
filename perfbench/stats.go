package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank percentile of xs (q in [0, 1]):
// the smallest sample with at least q·n samples at or below it. It
// returns 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rankIndex(len(s), q)]
}

// rankIndex is the 0-based nearest-rank index of percentile q in n
// sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(i, n-1))
}

// beyond returns how many of n samples lie above the nearest-rank
// percentile q.
func beyond(n int, q float64) int {
	return n - 1 - rankIndex(n, q)
}

// tailQuantiles are the percentiles the benchmark may report as a
// timing's tail, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9}

// tailQuantile returns the highest percentile in tailQuantiles that has
// at least ten samples beyond it among n samples, or 0 when even the
// 90th percentile has fewer (then only the median is a sound figure).
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0
}

// windowedP99 splits xs, in arrival order, into consecutive windows of
// at least size samples (the last window takes the remainder) and
// returns the median of the windows' 99th percentiles. A stall of the
// host moves the p99 of the window it falls in, not the figure; with
// size ≥ 1000 every window's p99 has ten samples beyond it.
func windowedP99(xs []float64, size int) float64 {
	return median(windowP99s(xs, size))
}

// windowP99s returns the 99th percentile of each window windowedP99
// takes, or the one p99 of xs when it holds fewer than two windows.
func windowP99s(xs []float64, size int) []float64 {
	n := len(xs) / size
	if n < 2 {
		return []float64{percentile(xs, 0.99)}
	}
	p99s := make([]float64, n)
	for w := range n {
		hi := (w + 1) * size
		if w == n-1 {
			hi = len(xs)
		}
		p99s[w] = percentile(xs[w*size:hi], 0.99)
	}
	return p99s
}

// windowP50s splits latencies, given with their completion instants in
// completion order, into consecutive windows of length span from start
// (the completions after the last full window join it) and returns each
// window's median, or the one median of the whole phase when it holds
// fewer than two full windows. A shared host swings between two speeds
// that each last from tens of milliseconds to several seconds, so the
// median over all reads jumps between the two levels as their shares
// cross one half; the mean of the windows' medians moves in proportion
// to the shares.
func windowP50s(start time.Time, ends []time.Time, lat []float64, span time.Duration) []float64 {
	if len(ends) == 0 {
		return nil
	}
	n := int(ends[len(ends)-1].Sub(start) / span)
	if n < 2 {
		return []float64{percentile(lat, 0.5)}
	}
	wins := make([][]float64, n)
	for i, e := range ends {
		w := min(int(e.Sub(start)/span), n-1)
		wins[w] = append(wins[w], lat[i])
	}
	p50s := make([]float64, n)
	for w, xs := range wins {
		p50s[w] = percentile(xs, 0.5)
	}
	return p50s
}

// phaseRate returns the completions per second of a phase that began at
// start and whose n completions ended at last.
func phaseRate(start, last time.Time, n int) float64 {
	return float64(n) / max(last.Sub(start).Seconds(), 1e-9)
}

// median returns the middle sample of xs (the mean of the two middle
// samples for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
