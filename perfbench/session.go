package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/simjoin"
)

// session-delta: a durable hybrid + transitive library session on
// RestaurantN. Set-up resolves a sessionBase-record base; the run times
// sessionDeltas deltas of sessionBatch records each, so the delta p90
// has ten samples beyond it. The rows arrive in one fixed shuffled order
// and the run seed drives the crowd, because the router learns along the
// arrival order and the order moves the session's HITs most (README.md).
const (
	sessionBase   = 10_000
	sessionBatch  = 100
	sessionDeltas = 100
	sessionTau    = 0.5
)

// deltaSession is one set-up session.
type deltaSession struct {
	in    *input
	dir   string
	fs    *crowder.FileStore
	store *meteredStore
	opts  crowder.Options
	rv    *crowder.Resolver
	pc    *progressCounter
}

func (s *deltaSession) close() {
	_ = s.store.Close() // the session is discarded with its directory
	_ = os.RemoveAll(s.dir)
}

func newDeltaSession(r *run, i int) (*deltaSession, error) {
	total := sessionBase + sessionBatch*sessionDeltas
	in := fromDataset(dataset.RestaurantN(canonicalData, total, total/10)).shuffled(canonicalData)
	s := &deltaSession{in: in, dir: filepath.Join(r.tmp, fmt.Sprintf("session-%d", i)), pc: &progressCounter{}}
	fs, _, err := crowder.OpenStore(s.dir, crowder.StoreOptions{})
	if err != nil {
		return nil, err
	}
	s.fs, s.store = fs, newMeteredStore(fs)
	s.opts = crowder.Options{
		Threshold:    sessionTau,
		HITType:      crowder.PairHITs,
		ClusterSize:  10,
		Oracle:       in.oracle,
		Seed:         r.derive("crowd"),
		Hybrid:       crowder.HybridOn,
		Transitivity: crowder.TransitivityOn,
		Store:        s.store,
	}
	if r.traced {
		s.opts.Progress = s.pc.observe
	}
	s.rv, err = crowder.NewResolver(crowder.NewTable(in.schema...), s.opts)
	if err != nil {
		s.close()
		return nil, err
	}
	s.rv.AppendBatch(in.rows[:sessionBase]...)
	if _, err := s.rv.ResolveDelta(); err != nil {
		s.close()
		return nil, fmt.Errorf("base resolve: %w", err)
	}
	return s, nil
}

func runSessionDelta(r *run) error {
	s, err := timeSetups(r, func(i int) (*deltaSession, error) { return newDeltaSession(r, i) }, (*deltaSession).close)
	if err != nil {
		return err
	}
	defer s.close()

	var (
		deltaMS, roundMS     []float64
		untracedMS, tracedMS []float64
		bytesPerDelta        []float64
		crowd                crowdTotals
		last                 *crowder.Result
	)
	walBefore, _ := s.fs.Stats()
	for d := 0; d < sessionDeltas; d++ {
		op := d + 1
		traced := r.traced && d%2 == 1
		lo := sessionBase + d*sessionBatch
		s.store.begin(op, traced)
		s.pc.enabled.Store(traced)
		var rt0 rtSample
		if traced {
			rt0 = readRuntime()
		}
		t0 := time.Now()
		s.rv.AppendBatch(s.in.rows[lo : lo+sessionBatch]...)
		t1 := time.Now()
		res, err := s.rv.ResolveDelta()
		t2 := time.Now()
		var rt1 rtSample
		if traced {
			rt1 = readRuntime()
		}
		s.pc.enabled.Store(false)
		calls := s.store.end()
		if r.op(err) != nil {
			continue
		}
		last = res
		deltaMS = append(deltaMS, ms(t2.Sub(t1)))
		roundMS = append(roundMS, ms(t2.Sub(t0)))
		crowd.add(res)
		if !r.traced {
			continue
		}
		if wal, _ := s.fs.Stats(); wal > walBefore {
			bytesPerDelta = append(bytesPerDelta, float64(wal-walBefore))
			walBefore = wal
		} else {
			walBefore = wal // compacted: the WAL restarted
		}
		if !traced {
			untracedMS = append(untracedMS, ms(t2.Sub(t1)))
			continue
		}
		tracedMS = append(tracedMS, ms(t2.Sub(t1)))
		r.acc.rt.add(rt0, rt1)
		r.acc.addResult(res, t2.Sub(t1), s.rv.JudgedPairs())
		r.traceResolve(op, "round", t0, t1, t2, res, calls)
	}
	if last == nil {
		return fmt.Errorf("every delta failed")
	}
	total := sessionBase + sessionBatch*sessionDeltas

	r.latencies(deltaMS, roundMS)
	r.set("resolve_s", sum(deltaMS)/1e3)
	crowd.report(r)
	r.set("f1", s.in.score(last.Matches, total).f1())
	r.readLibrary(last)
	r.set("peak_rss_mb", peakRSSMB())

	reissued := s.store.reissuedPairs()
	r.check("no_reissued_hits", reissued == 0,
		fmt.Sprintf("%d crowd answers logged for pairs already asked in an earlier delta", reissued))
	recoverMS, err := checkRecovery(r, s)
	if err != nil {
		return err
	}

	if r.traced {
		r.acc.report(r, s.pc)
		s.store.report(r)
		wal, snap := s.fs.Stats()
		r.set("store.wal_bytes", float64(wal))
		r.set("store.snapshot_bytes", float64(snap))
		r.set("store.bytes_per_delta", median(bytesPerDelta))
		r.set("store.data_dir_bytes", float64(dirBytes(s.dir)))
		r.set("store.recover_ms", recoverMS)
		r.probeLayers(s.in.recordTable(total), simjoin.Options{Threshold: sessionTau})
		r.reportTrace(untracedMS, tracedMS)
	}
	return nil
}

// checkRecovery copies the session's store as a crash would leave it,
// recovers a second session from the copy, and checks that one more
// delta on each yields bit-identical matches. It returns the time
// OpenStore plus RestoreResolver took.
func checkRecovery(r *run, s *deltaSession) (float64, error) {
	dir := s.dir + "-recovered"
	if err := copyDir(s.dir, dir); err != nil {
		return 0, fmt.Errorf("copying the session store: %w", err)
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	fs, rec, err := crowder.OpenStore(dir, crowder.StoreOptions{})
	if r.op(err) != nil {
		return 0, nil
	}
	defer fs.Close()
	opts := s.opts
	opts.Store = fs
	opts.Progress = nil
	restored, err := crowder.RestoreResolver(rec, opts)
	recoverMS := ms(time.Since(t0))
	if r.op(err) != nil {
		return recoverMS, nil
	}
	s.store.begin(sessionDeltas+1, false)
	live, err := s.rv.ResolveDelta()
	if r.op(err) != nil {
		return recoverMS, nil
	}
	back, err := restored.ResolveDelta()
	if r.op(err) != nil {
		return recoverMS, nil
	}
	r.check("recovered_matches_identical", sameMatches(live.Matches, back.Matches),
		fmt.Sprintf("live %d matches, recovered %d", len(live.Matches), len(back.Matches)))
	return recoverMS, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
