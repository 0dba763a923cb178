package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// resetPeakRSS restarts the kernel's peak-RSS counter at the current
// resident set size, so that peakRSSMB covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size in MiB since
// the last resetPeakRSS (VmHWM), or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// rtSample is a reading of the Go runtime's allocation and GC counters.
type rtSample struct {
	allocBytes, gcCycles uint64
	pauseNS              float64
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/sched/pauses/total/gc:seconds"}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var s rtSample
	if ss[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = ss[1].Value.Uint64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := ss[2].Value.Float64Histogram()
		for i, c := range h.Counts {
			// Bucket midpoints; the open-ended edges use the finite one.
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			switch {
			case math.IsInf(lo, 0):
				lo = hi
			case math.IsInf(hi, 0):
				hi = lo
			}
			s.pauseNS += float64(c) * (lo + hi) / 2 * 1e9
		}
	}
	return s
}

// rtDelta accumulates runtime counters over the timed sections of
// traced operations.
type rtDelta struct {
	sections             int
	allocMB, gc, pauseMS float64
}

func (d *rtDelta) add(before, after rtSample) {
	d.sections++
	d.allocMB += float64(after.allocBytes-before.allocBytes) / (1 << 20)
	d.gc += float64(after.gcCycles - before.gcCycles)
	d.pauseMS += (after.pauseNS - before.pauseNS) / 1e6
}

// report sets the per-section means.
func (d *rtDelta) report(r *run) {
	if d.sections == 0 {
		return
	}
	n := float64(d.sections)
	r.set("runtime.alloc_mb", d.allocMB/n)
	r.set("runtime.gc_cycles", d.gc/n)
	r.set("runtime.gc_pause_ms", d.pauseMS/n)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
