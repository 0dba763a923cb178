package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
)

// A workload sets up at least minSetups times, and more (up to
// maxSetups) while the set-ups together took under setupPhase, so that a
// cheap set-up still has a steady median. setup_s is the median; the
// last set-up is the one the run measures.
const (
	minSetups  = 3
	maxSetups  = 9
	setupPhase = time.Second
)

// A library workload reads its accepted matches for libraryReadPhase
// after libraryWarmup, and at least libraryMinReads times so that its
// read p99 is the median of three readWindow-read windows, each with ten
// samples beyond its p99 (windowP99s). Every workload reports its read
// p50 as the mean of the medians of readSpan windows (windowP50s).
const (
	libraryWarmup    = 500 * time.Millisecond
	libraryReadPhase = 6 * time.Second
	libraryMinReads  = 3000
	readWindow       = 1000
	readSpan         = time.Second
)

// stagesOf converts a result's stage timings.
func stagesOf(res *crowder.Result) []stage {
	out := make([]stage, len(res.Stages))
	for i, s := range res.Stages {
		out[i] = stage{name: s.Name, seconds: s.Seconds}
	}
	return out
}

// traceResolve records a traced resolve call: a root span (named root)
// from start to end with the engine stages laid out from resolveStart,
// and each timed store call under the stage that was running.
func (r *run) traceResolve(op int, root string, start, resolveStart, end time.Time, res *crowder.Result, calls []storeCall) {
	tr := r.tr
	id := tr.add(op, 0, root, start, end)
	parent, appendID := id, id
	if !resolveStart.Equal(start) {
		appendID = tr.add(op, id, "append", start, resolveStart)
		parent = tr.add(op, id, "delta", resolveStart, end)
	}
	st := tr.layStages(op, parent, resolveStart, stagesOf(res))
	for _, c := range calls {
		p := parentAt(st, tr.ns(c.start), parent)
		if c.start.Before(resolveStart) {
			p = appendID
		}
		tr.add(op, p, "store.log", c.start, c.end)
	}
}

// readLibrary times closed-loop reads of the accepted matches of results
// from one goroutine, for libraryReadPhase and at least libraryMinReads
// reads, and sets the read metrics. A single reader on a host with more
// than one CPU never waits for a CPU, so its latency is the read's own
// cost; with more readers than CPUs the tail would be the Go scheduler's
// 10 ms time slice, landing where the host's stolen CPU time puts it.
// The heap is collected first, so the reads do not pay for the garbage
// of the work before them, and libraryWarmup of untimed reads lets the
// collector settle to the reads' own allocation rate.
func (r *run) readLibrary(results ...*crowder.Result) {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	for t0 := time.Now(); time.Since(t0) < libraryWarmup; {
		for _, res := range results {
			renderAccepted(res)
		}
	}
	var reads []timedRead
	var errs []error
	start := time.Now()
	for len(reads) < libraryMinReads || time.Since(start) < libraryReadPhase {
		t0 := time.Now()
		var failed error
		for _, res := range results {
			if _, err := renderAccepted(res); err != nil {
				failed = err
			}
		}
		end := time.Now()
		errs = append(errs, failed)
		reads = append(reads, timedRead{end: end, ms: ms(end.Sub(t0))})
	}
	r.ops(len(reads), errs)
	r.setReads(start, reads)
	r.note("reads", map[string]any{"count": len(reads), "clients": 1, "heap_mb": float64(mem.HeapAlloc) / (1 << 20), "window": readWindow, "tail_quantile": tailQuantile(min(len(reads), readWindow))})
}

// timedRead is one read's completion instant and latency.
type timedRead struct {
	end time.Time
	ms  float64
}

// setReads sets read_p50_ms (the mean of the readSpan windows'
// medians), read_p99_ms (the median of the readWindow-read windows'
// p99s, in completion order) and read_rps (over the whole phase) from
// the reads of a closed-loop phase that began at start.
func (r *run) setReads(start time.Time, reads []timedRead) {
	slices.SortFunc(reads, func(a, b timedRead) int { return a.end.Compare(b.end) })
	lat := make([]float64, len(reads))
	ends := make([]time.Time, len(reads))
	for i, rd := range reads {
		lat[i], ends[i] = rd.ms, rd.end
	}
	p50s := windowP50s(start, ends, lat, readSpan)
	p99s := windowP99s(lat, readWindow)
	r.set("read_p50_ms", mean(p50s))
	r.set("read_p99_ms", median(p99s))
	if len(reads) > 0 {
		r.set("read_rps", phaseRate(start, ends[len(ends)-1], len(reads)))
	}
	r.note("read_windows", map[string]any{"p50_ms": p50s, "p99_ms": p99s})
}

// latencies sets a workload's delta and round latency metrics and notes
// their sample counts and the highest percentile each count supports.
func (r *run) latencies(deltaMS, roundMS []float64) {
	r.set("delta_p50_ms", percentile(deltaMS, 0.5))
	r.set("delta_p90_ms", percentile(deltaMS, 0.9))
	r.set("round_p50_ms", percentile(roundMS, 0.5))
	r.note("samples", map[string]any{
		"delta": len(deltaMS), "delta_tail_quantile": tailQuantile(len(deltaMS)),
		"round": len(roundMS),
	})
}

// probeLayers times the record and simjoin layers directly on a fresh
// copy of the workload's table: interning every record's tokens, then
// building the join index over the whole table.
func (r *run) probeLayers(t *record.Table, opts simjoin.Options) {
	t0 := time.Now()
	t.TokenIDs()
	r.values["record.tokenize_ms"] += ms(time.Since(t0))
	ix := simjoin.NewIndex(t, opts)
	ix.Update()
	r.values["simjoin.postings_bytes"] += float64(ix.PostingsBytes())
}

// reportTrace sets the self-time, span-count and overhead metrics from
// the recorded spans and the latencies of the run's untraced and traced
// operations of one kind.
func (r *run) reportTrace(untracedMS, tracedMS []float64) {
	spans := r.tr.snapshot()
	self := selfByName(spans)
	for _, name := range selfSpans {
		r.set("self."+name+".ms", self[name])
	}
	r.set("trace.spans", float64(len(spans)))
	u, t := median(untracedMS), median(tracedMS)
	r.set("trace.overhead_ms", t-u)
	if u > 0 {
		r.set("trace.overhead_pct", 100*(t-u)/u)
	}
	r.note("trace_overhead", map[string]any{
		"untraced_ops": len(untracedMS), "traced_ops": len(tracedMS),
		"untraced_median_ms": u, "traced_median_ms": t,
	})
}

// crowdTotals accumulates the deterministic crowd figures.
type crowdTotals struct {
	hits            int
	cost, makespanS float64
}

func (c *crowdTotals) add(res *crowder.Result) {
	c.hits += res.HITs
	c.cost += res.CostDollars
	c.makespanS += res.ElapsedSeconds
}

func (c crowdTotals) report(r *run) {
	r.set("hits", float64(c.hits))
	r.set("crowd_cost_usd", c.cost)
	r.set("crowd_makespan_s", c.makespanS)
	r.note("crowd", map[string]any{"hits": c.hits, "cost_usd": c.cost, "makespan_s": c.makespanS})
}

// timeSetups runs setup several times, sets setup_s to the median
// and returns the last set-up's value; release frees an earlier one.
// The measured phase starts when it returns.
func timeSetups[T any](r *run, setup func(i int) (T, error), release func(T)) (T, error) {
	var v T
	var secs []float64
	start := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(start) < setupPhase); i++ {
		if i > 0 && release != nil {
			release(v)
		}
		t0 := time.Now()
		next, err := setup(i)
		if err != nil {
			return v, fmt.Errorf("set-up %d: %w", i, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		v = next
	}
	r.set("setup_s", median(secs))
	r.note("setup", map[string]any{"seconds": secs})
	// peak_rss_mb covers the measured phase, from the resident set the
	// kept set-up left, not the discarded set-ups.
	if err := resetPeakRSS(); err != nil {
		return v, fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return v, nil
}
