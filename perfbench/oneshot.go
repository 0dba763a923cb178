package main

import (
	"fmt"
	"time"

	"github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/hitgen"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
)

// oneshotTable is one table a one-shot workload resolves.
type oneshotTable struct {
	name    string
	in      *input
	opts    crowder.Options
	minRuns int     // resolves per run; a second one checks determinism
	floor   float64 // minimum F1 the check accepts; 0 skips the check
}

// oneshotCall is one timed crowder.Resolve.
type oneshotCall struct {
	res         *crowder.Result
	build, wall time.Duration
	traced      bool
}

// runOneshot resolves each table in passes: a table takes part in a pass
// while it has had fewer than its minRuns resolves (two in a traced run)
// or the run's measuring time has not passed. Odd passes are traced in a
// traced run, so each traced resolve has an untraced twin for the
// overhead figure. After its own checks it calls extra with each table's
// calls (their reruns freed), for the workload's further checks, and
// then reads the first result of each table. The tables are not used
// after extra, so the reads run beside the results they read, not
// beside the inputs the benchmark generated.
func runOneshot(r *run, tables []oneshotTable, extra func([][]oneshotCall)) error {
	pc := &progressCounter{}
	calls := make([][]oneshotCall, len(tables))
	start := time.Now()
	op := 0
	for pass := 0; ; pass++ {
		traced := r.traced && pass%2 == 1
		ran := false
		for i, tb := range tables {
			need := tb.minRuns
			if r.traced {
				need = max(need, 2)
			}
			if pass >= need && time.Since(start) >= r.seconds {
				continue
			}
			ran = true
			op++
			c, err := r.resolveOnce(op, tb, traced, pc)
			if err != nil {
				return fmt.Errorf("%s: %w", tb.name, err)
			}
			calls[i] = append(calls[i], c)
		}
		if !ran {
			break
		}
	}

	var deltaMS, roundMS []float64
	var resolveS, untracedS, tracedS float64
	var crowd crowdTotals
	var all counts
	var results []*crowder.Result
	for i, tb := range tables {
		var walls, untraced, traced []float64
		for _, c := range calls[i] {
			deltaMS = append(deltaMS, ms(c.wall))
			roundMS = append(roundMS, ms(c.build+c.wall))
			walls = append(walls, c.wall.Seconds())
			if c.traced {
				traced = append(traced, c.wall.Seconds())
			} else {
				untraced = append(untraced, c.wall.Seconds())
			}
		}
		resolveS += median(walls)
		untracedS += median(untraced)
		tracedS += median(traced)
		r.note("resolves", map[string]any{"table": tb.name, "seconds": walls})

		first := calls[i][0].res
		crowd.add(first)
		results = append(results, first)
		c := tb.in.score(first.Matches, len(tb.in.rows))
		all.add(c)
		if tb.floor > 0 {
			r.check(tb.name+"_f1_floor", c.f1() >= tb.floor, fmt.Sprintf("F1 %.4f, floor %.2f", c.f1(), tb.floor))
		}
		for j := range calls[i][1:] {
			again := &calls[i][1+j]
			r.check(tb.name+"_rerun_identical", sameMatches(first.Matches, again.res.Matches),
				fmt.Sprintf("%d vs %d matches for the same seed", len(first.Matches), len(again.res.Matches)))
			// Checked: free it, so the reads below run beside the heap
			// of one result per table, not of every rerun.
			again.res = nil
		}
	}
	r.latencies(deltaMS, roundMS)
	r.set("resolve_s", resolveS)
	crowd.report(r)
	r.set("f1", all.f1())
	extra(calls)
	r.readLibrary(results...)
	r.set("peak_rss_mb", peakRSSMB())
	if r.traced {
		r.acc.report(r, pc)
		r.reportTrace([]float64{untracedS * 1e3}, []float64{tracedS * 1e3})
	}
	return nil
}

// resolveOnce builds a fresh table (the table caches its tokens, so a
// reused one would skip first-touch tokenization) and times one Resolve.
func (r *run) resolveOnce(op int, tb oneshotTable, traced bool, pc *progressCounter) (oneshotCall, error) {
	opts := tb.opts
	if traced {
		opts.Progress = pc.observe
	}
	c := oneshotCall{traced: traced}
	t0 := time.Now()
	t := tb.in.table(len(tb.in.rows))
	t1 := time.Now()
	pc.enabled.Store(traced)
	var rt0 rtSample
	if traced {
		rt0 = readRuntime()
	}
	res, err := crowder.Resolve(t, opts)
	t2 := time.Now()
	pc.enabled.Store(false)
	if r.op(err) != nil {
		return c, err
	}
	c.res, c.build, c.wall = res, t1.Sub(t0), t2.Sub(t1)
	if traced {
		r.acc.rt.add(rt0, readRuntime())
		r.acc.addResult(res, c.wall, len(res.Matches))
		r.traceResolve(op, "resolve", t1, t1, t2, res, nil)
	}
	return c, nil
}

// paper-oneshot: the paper's dense candidate graphs — Restaurant and the
// cross-source Product at τ = 0.1 with two-tiered cluster HITs. The
// answers are aggregated with Dawid–Skene MAP: under the default plain
// Dawid–Skene, some crowd seeds flip Restaurant's precision (seed 208:
// 192 false positives, F1 0.49), the sparse-coverage degeneracy the MAP
// mode exists to fix, and the F1 floor check would fail on them.
const paperTau = 0.1

func runPaperOneshot(r *run) error {
	tables, err := timeSetups(r, func(int) ([]oneshotTable, error) {
		opts := crowder.Options{
			Threshold: paperTau, ClusterSize: 10, HITType: crowder.ClusterHITs, Generator: crowder.GenTwoTiered,
			Aggregation: crowder.AggregationDawidSkeneMAP,
		}
		rest := fromDataset(dataset.Restaurant(canonicalData)).shuffled(r.derive("restaurant"))
		prod := fromDataset(dataset.Product(canonicalData)).shuffled(r.derive("product"))
		ro, po := opts, opts
		ro.Oracle, ro.Seed = rest.oracle, r.derive("crowd-restaurant")
		po.Oracle, po.Seed, po.CrossSourceOnly = prod.oracle, r.derive("crowd-product"), true
		return []oneshotTable{
			{name: "restaurant", in: rest, opts: ro, minRuns: 2, floor: 0.7},
			{name: "product", in: prod, opts: po, minRuns: 1, floor: 0.8},
		}, nil
	}, nil)
	if err != nil {
		return err
	}
	return runOneshot(r, tables, func(calls [][]oneshotCall) {
		if !r.traced {
			return
		}
		for i, tb := range tables {
			var pairs []record.Pair
			for _, m := range calls[i][0].res.Matches {
				pairs = append(pairs, record.MakePair(record.ID(m.Pair.A), record.ID(m.Pair.B)))
			}
			t0 := time.Now()
			tt, err := hitgen.TwoTiered{}.Generate(pairs, tb.opts.ClusterSize)
			r.values["hitgen.twotiered_ms"] += ms(time.Since(t0))
			if r.op(err) != nil {
				continue
			}
			rnd, err := hitgen.Random{Seed: tb.opts.Seed}.Generate(pairs, tb.opts.ClusterSize)
			if r.op(err) != nil {
				continue
			}
			r.values["hitgen.twotiered_hits"] += float64(len(tt))
			r.values["hitgen.random_hits"] += float64(len(rnd))
			r.probeLayers(tb.in.recordTable(len(tb.in.rows)), simjoin.Options{Threshold: paperTau, CrossSourceOnly: tb.opts.CrossSourceOnly})
		}
	})
}

// scale-join: one machine-pass-bound Resolve on a fresh ScaleN table.
const (
	scaleRecords = 500_000
	scaleDups    = scaleRecords / 50
	scaleTau     = 0.6
)

func runScaleJoin(r *run) error {
	tables, err := timeSetups(r, func(int) ([]oneshotTable, error) {
		in := fromDataset(dataset.ScaleN(r.derive("scale"), scaleRecords, scaleDups))
		return []oneshotTable{{name: "scale", in: in, minRuns: 2, opts: crowder.Options{
			Threshold: scaleTau, Oracle: in.oracle, Seed: r.derive("crowd-scale"),
		}}}, nil
	}, nil)
	if err != nil {
		return err
	}
	return runOneshot(r, tables, func(calls [][]oneshotCall) {
		scaleChecks(r, tables[0].in, calls[0][0].res)
	})
}

// scaleChecks checks that every planted duplicate of in is among the
// judged candidate pairs of res and, in a traced run, probes the record
// and simjoin layers on a fresh copy of the table.
func scaleChecks(r *run, in *input, res *crowder.Result) {
	judged := make(map[crowder.Pair]bool, len(res.Matches))
	for _, m := range res.Matches {
		judged[m.Pair] = true
	}
	missing := 0
	for p := range in.truth {
		if !judged[p] {
			missing++
		}
	}
	r.check("planted_duplicates_are_candidates", missing == 0,
		fmt.Sprintf("%d of %d planted duplicates missing from the candidates", missing, len(in.truth)))
	if r.traced {
		r.probeLayers(in.recordTable(len(in.rows)), simjoin.Options{Threshold: scaleTau})
	}
}
