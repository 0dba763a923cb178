package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/store"
)

// progressCounter counts HIT lifecycle events from Options.Progress
// while enabled: tasks posted, assignments collected, tasks retracted.
type progressCounter struct {
	enabled                      atomic.Bool
	posted, assignments, retired atomic.Int64
}

func (p *progressCounter) observe(ev crowder.Progress) {
	if !p.enabled.Load() {
		return
	}
	switch ev.State {
	case crowder.HITPosted:
		p.posted.Add(1)
	case crowder.HITAnswering, crowder.HITComplete:
		p.assignments.Add(1)
	case crowd.HITRetracted:
		p.retired.Add(1)
	}
}

// layerAcc accumulates per-layer figures over the traced resolve calls
// of a run and reports them as means per call.
type layerAcc struct {
	calls                                    int
	stageMS                                  map[string]float64
	otherMS                                  float64
	newCands, machine, deduced, hits, judged float64
	crowdPairs                               float64
	rt                                       rtDelta
}

// addResult folds in one traced resolve call: its result, wall time and
// the session's judged-pair count after it.
func (a *layerAcc) addResult(res *crowder.Result, wall time.Duration, judged int) {
	if a.stageMS == nil {
		a.stageMS = map[string]float64{}
	}
	a.calls++
	var staged float64
	for _, s := range res.Stages {
		a.stageMS[s.Name] += s.Seconds * 1e3
		staged += s.Seconds * 1e3
	}
	a.otherMS += ms(wall) - staged
	a.newCands += float64(res.NewCandidates)
	a.machine += float64(res.MachinePairs)
	a.deduced += float64(res.DeducedPairs)
	a.hits += float64(res.HITs)
	a.crowdPairs += float64(res.NewCandidates - res.MachinePairs - res.DeducedPairs)
	a.judged += float64(judged)
}

func (a *layerAcc) report(r *run, pc *progressCounter) {
	if a.calls == 0 {
		return
	}
	n := float64(a.calls)
	for _, st := range []string{"prune", "route", "generate", "execute", "aggregate"} {
		r.set(st+".ms", a.stageMS[st]/n)
	}
	r.set("engine.other_ms", a.otherMS/n)
	r.set("prune.new_candidates", a.newCands/n)
	r.set("route.machine_pairs", a.machine/n)
	r.set("transitivity.deduced_pairs", a.deduced/n)
	if a.hits > 0 {
		r.set("generate.pairs_per_hit", a.crowdPairs/a.hits)
	}
	r.set("aggregate.judged_pairs", a.judged/n)
	if a.judged > 0 {
		r.set("aggregate.us_per_judged_pair", a.stageMS["aggregate"]*1e3/a.judged)
	}
	if pc != nil {
		r.set("crowd.posted_hits", float64(pc.posted.Load())/n)
		r.set("crowd.assignments", float64(pc.assignments.Load())/n)
		r.set("crowd.retracted_hits", float64(pc.retired.Load())/n)
	}
	a.rt.report(r)
}

// storeCall is one timed Log call on the metered store.
type storeCall struct {
	kind       string
	start, end time.Time
}

// meteredStore wraps the session's file store. It always tracks which
// delta first logged crowd answers for each pair, so a pair asked again
// in a later delta is caught; while an operation is traced it also
// times every Log call.
type meteredStore struct {
	inner *crowder.FileStore

	mu       sync.Mutex
	op       int
	traced   bool
	calls    []storeCall
	asked    map[record.Pair]int
	reissued []record.Pair
	lat      map[string][]float64 // µs per event kind, traced calls only
}

func newMeteredStore(inner *crowder.FileStore) *meteredStore {
	return &meteredStore{inner: inner, asked: map[record.Pair]int{}, lat: map[string][]float64{}}
}

// begin starts operation op; calls are timed only when traced.
func (m *meteredStore) begin(op int, traced bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.op, m.traced, m.calls = op, traced, nil
}

// end returns the timed calls of the current operation.
func (m *meteredStore) end() []storeCall {
	m.mu.Lock()
	defer m.mu.Unlock()
	calls := m.calls
	m.calls, m.traced = nil, false
	return calls
}

// Log implements crowder.Store.
func (m *meteredStore) Log(ev store.Event) error {
	start := time.Now()
	err := m.inner.Log(ev)
	end := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := ev.(*store.Commit); ok {
		for _, o := range c.Ops {
			for _, a := range o.Answers {
				if first, seen := m.asked[a.Pair]; !seen {
					m.asked[a.Pair] = m.op
				} else if first != m.op {
					m.reissued = append(m.reissued, a.Pair)
				}
			}
		}
	}
	if m.traced {
		k := kind(ev)
		m.calls = append(m.calls, storeCall{kind: k, start: start, end: end})
		m.lat[k] = append(m.lat[k], float64(end.Sub(start).Nanoseconds())/1e3)
	}
	return err
}

// reissuedPairs returns how many crowd answers were logged for pairs
// already asked in an earlier operation.
func (m *meteredStore) reissuedPairs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.reissued)
}

// Close implements crowder.Store.
func (m *meteredStore) Close() error { return m.inner.Close() }

// report sets the store's per-layer latency metrics.
func (m *meteredStore) report(r *run) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var all []float64
	for _, k := range sortedKeys(m.lat) {
		all = append(all, m.lat[k]...)
	}
	r.set("store.log_calls", float64(len(all)))
	r.set("store.log_p50_us", percentile(all, 0.5))
	r.set("store.log_p99_us", percentile(all, 0.99))
	for _, k := range storeEvents {
		r.set("store."+k+".log_calls", float64(len(m.lat[k])))
		r.set("store."+k+".log_p50_us", percentile(m.lat[k], 0.5))
		r.set("store."+k+".log_p99_us", percentile(m.lat[k], 0.99))
	}
}

// kind names a store event by its Go type: *store.Commit → "commit".
func kind(v any) string {
	t := fmt.Sprintf("%T", v)
	if i := strings.LastIndexByte(t, '.'); i >= 0 {
		t = t[i+1:]
	}
	return strings.ToLower(t)
}
