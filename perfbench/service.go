package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/service"
)

// service-mixed: in-process crowderd on loopback with a data directory.
// One writer runs append+resolve+poll rounds while an open-loop reader
// fetches the matches on a fixed schedule; a closed-loop read-capacity
// phase follows.
const (
	serviceBase     = 10_000
	serviceBatch    = 100
	serviceRounds   = 40
	serviceTau      = 0.5
	readInterval    = 2 * time.Millisecond
	minMixedReads   = 3 * readWindow
	capacityWarmup  = 250 * time.Millisecond
	capacityPhase   = 5 * time.Second
	pollInterval    = time.Millisecond
	requestIDHeader = "X-Perfbench-Req"
)

// handled is one traced request as the server's handler saw it.
type handled struct {
	start, end time.Time
	bytes      int
}

// meteredHandler times the service's handler for requests that carry a
// request ID, and counts response bytes.
type meteredHandler struct {
	next http.Handler
	mu   sync.Mutex
	seen map[string]handled
}

func (h *meteredHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	id := req.Header.Get(requestIDHeader)
	if id == "" {
		h.next.ServeHTTP(w, req)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(cw, req)
	end := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seen[id] = handled{start: start, end: end, bytes: cw.n}
}

// take returns and forgets the handler record of request id.
func (h *meteredHandler) take(id string) (handled, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	v, ok := h.seen[id]
	delete(h.seen, id)
	return v, ok
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

// daemon is one set-up crowderd instance with its table resolved.
type daemon struct {
	in      *input
	dir     string
	url     string
	srv     *http.Server
	served  chan struct{}
	handler *meteredHandler
	oracle  [][2]int
	seed    int64
	// failedRequests counts requests that errored or answered non-2xx.
	failedRequests atomic.Int64
}

func (d *daemon) close() {
	_ = d.srv.Close() // Serve returns ErrServerClosed; nothing to flush
	<-d.served
	_ = os.RemoveAll(d.dir)
}

// client is one HTTP connection's worth of requests, with the request
// accounting a workload needs.
type client struct {
	http *http.Client
	d    *daemon
	reqs *atomic.Int64
}

func newClient(d *daemon, reqs *atomic.Int64) *client {
	return &client{d: d, reqs: reqs, http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

// call is one request's outcome and timing.
type call struct {
	name       string
	id         string
	start, end time.Time
	bytes      int
}

// do sends one JSON request and decodes the response into out. A
// traced request carries a request ID so the handler wrapper times it.
// Any non-2xx status is an error.
func (c *client) do(method, path, name string, traced bool, body, out any) (call, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return call{}, err
		}
	}
	req, err := http.NewRequest(method, c.d.url+path, &buf)
	if err != nil {
		return call{}, err
	}
	cl := call{name: name}
	if traced {
		cl.id = strconv.FormatInt(c.reqs.Add(1), 10)
		req.Header.Set(requestIDHeader, cl.id)
	}
	cl.start = time.Now()
	cl, err = c.send(req, cl, out)
	if err != nil {
		c.d.failedRequests.Add(1)
	}
	return cl, err
}

func (c *client) send(req *http.Request, cl call, out any) (call, error) {
	method, path := req.Method, req.URL.RequestURI()
	resp, err := c.http.Do(req)
	if err != nil {
		return cl, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	cl.end, cl.bytes = time.Now(), len(data)
	if err != nil {
		return cl, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return cl, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return cl, fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	return cl, nil
}

// jobResult is the part of a finished job's status the benchmark reads.
type jobResult struct {
	HITs           int     `json:"hits"`
	CostDollars    float64 `json:"cost_dollars"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// round is one append+resolve+poll round's requests and result.
type round struct {
	calls                 []call
	start, resolveAt, end time.Time // resolveAt: when POST /resolve was sent
	polls                 int
	res                   jobResult
}

// runRound appends rows (if any), starts a resolve job and polls it to
// completion.
func (c *client) runRound(rows [][]string, traced bool) (round, error) {
	rd := round{start: time.Now()}
	if len(rows) > 0 {
		cl, err := c.do("POST", "/tables/bench/records", "append", traced, map[string]any{"rows": rows}, nil)
		rd.calls = append(rd.calls, cl)
		if err != nil {
			return rd, err
		}
	}
	var kicked struct {
		Job int `json:"job"`
	}
	cl, err := c.do("POST", "/tables/bench/resolve", "resolve", traced, map[string]any{}, &kicked)
	rd.calls = append(rd.calls, cl)
	rd.resolveAt = cl.start
	if err != nil {
		return rd, err
	}
	for {
		var status struct {
			State  string    `json:"state"`
			Error  string    `json:"error"`
			Result jobResult `json:"result"`
		}
		cl, err := c.do("GET", fmt.Sprintf("/tables/bench/jobs/%d", kicked.Job), "poll", traced, nil, &status)
		rd.calls = append(rd.calls, cl)
		rd.polls++
		if err != nil {
			return rd, err
		}
		switch status.State {
		case "done":
			rd.res, rd.end = status.Result, cl.end
			return rd, nil
		case "running", "queued":
			time.Sleep(pollInterval)
		default:
			return rd, fmt.Errorf("job %d ended %s: %s", kicked.Job, status.State, status.Error)
		}
	}
}

func newDaemon(r *run, i int) (*daemon, error) {
	total := serviceBase + serviceBatch*serviceRounds
	in := fromDataset(dataset.RestaurantN(canonicalData, total, total/10)).shuffled(r.derive("service-shuffle"))
	d := &daemon{in: in, dir: filepath.Join(r.tmp, fmt.Sprintf("crowderd-%d", i)), seed: r.derive("service-crowd"), served: make(chan struct{})}
	for _, p := range in.oracle {
		d.oracle = append(d.oracle, [2]int{p.A, p.B})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.handler = &meteredHandler{next: service.New(service.Options{DataDir: d.dir}), seen: map[string]handled{}}
	d.srv = &http.Server{Handler: d.handler}
	d.url = "http://" + ln.Addr().String()
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln) // always ErrServerClosed once close runs
	}()
	c := newClient(d, &atomic.Int64{})
	defer c.http.CloseIdleConnections()
	if _, err := c.do("POST", "/tables/bench", "create", false, map[string]any{
		"schema": in.schema,
		"options": map[string]any{
			"threshold": serviceTau, "hit_type": "pair", "cluster_size": 10,
			"seed": d.seed, "oracle": d.oracle,
		},
	}, nil); err != nil {
		d.close()
		return nil, err
	}
	if _, err := c.runRound(in.rows[:serviceBase], false); err != nil {
		d.close()
		return nil, fmt.Errorf("base round: %w", err)
	}
	return d, nil
}

// readSample is one timed GET /matches.
type readSample struct {
	acct   openLoopSample
	traced bool
	cl     call
	due    time.Time
	err    error
}

func runServiceMixed(r *run) error {
	d, err := timeSetups(r, func(i int) (*daemon, error) { return newDaemon(r, i) }, (*daemon).close)
	if err != nil {
		return err
	}
	defer d.close()
	writer := newClient(d, &atomic.Int64{})
	defer writer.http.CloseIdleConnections()

	m := runMixed(r, d, writer)
	var sv serviceTrace
	sv.reportRounds(r, d, m.rounds, m.roundErrs)
	sv.reportReads(r, d, m.reads)
	if err := readCapacity(r, d); err != nil {
		return err
	}
	r.set("peak_rss_mb", peakRSSMB())

	checkService(r, d, writer)
	if r.traced {
		sv.report(r)
		r.set("store.data_dir_bytes", float64(dirBytes(d.dir)))
	}
	return nil
}

// mixed is what the mixed phase recorded.
type mixed struct {
	rounds    []round
	roundErrs []error
	reads     []readSample
}

// runMixed runs the writer's rounds beside the open-loop reader, which
// keeps reading until the writer is done and it has read minMixedReads
// times.
func runMixed(r *run, d *daemon, writer *client) mixed {
	reader := newClient(d, writer.reqs)
	defer reader.http.CloseIdleConnections()
	var m mixed
	var writerDone atomic.Bool
	readerDone := make(chan struct{})
	sched := schedule{start: time.Now(), interval: readInterval}
	go func() {
		defer close(readerDone)
		for i := 0; !writerDone.Load() || i < minMixedReads; i++ {
			due := sched.due(i)
			time.Sleep(time.Until(due))
			traced := r.traced && i%2 == 1
			sent := time.Now()
			cl, err := reader.do("GET", "/tables/bench/matches?min=0.5", "matches", traced, nil, nil)
			m.reads = append(m.reads, readSample{acct: account(due, sent, time.Now()), traced: traced, cl: cl, due: due, err: err})
		}
	}()
	for k := 0; k < serviceRounds; k++ {
		lo := serviceBase + k*serviceBatch
		traced := r.traced && k%2 == 1
		var rt0 rtSample
		if traced {
			rt0 = readRuntime()
		}
		rd, err := writer.runRound(d.in.rows[lo:lo+serviceBatch], traced)
		if traced {
			r.acc.rt.add(rt0, readRuntime())
		}
		m.rounds = append(m.rounds, rd)
		m.roundErrs = append(m.roundErrs, err)
	}
	writerDone.Store(true)
	<-readerDone
	return m
}

// serviceTrace collects the service's per-layer figures from the traced
// rounds and reads.
type serviceTrace struct {
	polls, rounds                        float64
	untracedMS, tracedMS                 []float64
	handlerMS, queueMS, resolveHandlerMS []float64
	matchBytes, lagMS                    []float64
}

// reportRounds sets the round metrics and records the traced rounds'
// spans: the client's requests with the handler's time as their child.
func (sv *serviceTrace) reportRounds(r *run, d *daemon, rounds []round, errs []error) {
	var deltaMS, roundMS []float64
	var crowd crowdTotals
	for k, rd := range rounds {
		if r.op(errs[k]) != nil {
			continue
		}
		deltaMS = append(deltaMS, ms(rd.end.Sub(rd.resolveAt)))
		roundMS = append(roundMS, ms(rd.end.Sub(rd.start)))
		crowd.add(&crowder.Result{HITs: rd.res.HITs, CostDollars: rd.res.CostDollars, ElapsedSeconds: rd.res.ElapsedSeconds})
		sv.polls += float64(rd.polls)
		sv.rounds++
		if !r.traced || k%2 == 0 {
			continue
		}
		op := 1 + k
		root := r.tr.add(op, 0, "round", rd.start, rd.end)
		for _, cl := range rd.calls {
			id := r.tr.add(op, root, "http."+cl.name, cl.start, cl.end)
			if h, ok := d.handler.take(cl.id); ok {
				r.tr.add(op, id, "handler."+cl.name, h.start, h.end)
				if cl.name == "resolve" {
					sv.resolveHandlerMS = append(sv.resolveHandlerMS, ms(h.end.Sub(h.start)))
				}
			}
		}
	}
	r.latencies(deltaMS, roundMS)
	r.set("resolve_s", sum(deltaMS)/1e3)
	crowd.report(r)
}

// reportReads sets the mixed-phase read latencies and records the traced
// reads' spans: from when the read was due, the client request, and the
// handler inside it.
func (sv *serviceTrace) reportReads(r *run, d *daemon, reads []readSample) {
	var readMS []float64
	for i, s := range reads {
		if r.op(s.err) != nil {
			continue
		}
		lat := ms(s.acct.latency)
		readMS = append(readMS, lat)
		sv.lagMS = append(sv.lagMS, ms(s.acct.lag))
		if !r.traced {
			continue
		}
		if !s.traced {
			sv.untracedMS = append(sv.untracedMS, lat)
			continue
		}
		sv.tracedMS = append(sv.tracedMS, lat)
		op := 1_000_000 + i
		root := r.tr.add(op, 0, "read", s.due, s.cl.end)
		id := r.tr.add(op, root, "http.matches", s.cl.start, s.cl.end)
		if h, ok := d.handler.take(s.cl.id); ok {
			r.tr.add(op, id, "handler.matches", h.start, h.end)
			sv.handlerMS = append(sv.handlerMS, ms(h.end.Sub(h.start)))
			sv.queueMS = append(sv.queueMS, lat-ms(h.end.Sub(h.start)))
			sv.matchBytes = append(sv.matchBytes, float64(h.bytes))
		}
	}
	r.set("service.mixed_read_p50_ms", percentile(readMS, 0.5))
	r.set("service.mixed_read_p99_ms", windowedP99(readMS, readWindow))
	r.note("reads", map[string]any{
		"mixed": len(readMS), "window": readWindow, "tail_quantile": tailQuantile(readWindow),
		"p99_whole_phase_ms": percentile(readMS, 0.99), "window_p99_ms": windowP99s(readMS, readWindow),
		"lag_p99_ms": percentile(sv.lagMS, 0.99),
	})
}

// report sets the service's per-layer metrics.
func (sv *serviceTrace) report(r *run) {
	r.set("service.matches_handler_p50_ms", percentile(sv.handlerMS, 0.5))
	r.set("service.matches_handler_p99_ms", percentile(sv.handlerMS, 0.99))
	r.set("service.read_queue_ms", median(sv.queueMS))
	r.set("service.matches_bytes", mean(sv.matchBytes))
	r.set("service.polls_per_round", sv.polls/max(1, sv.rounds))
	r.set("service.resolve_handler_ms", mean(sv.resolveHandlerMS))
	r.set("loadgen.lag_p99_ms", percentile(sv.lagMS, 0.99))
	r.acc.rt.report(r)
	r.reportTrace(sv.untracedMS, sv.tracedMS)
}

// readCapacity runs closed-loop GET /matches from one client per CPU,
// with no writes, and sets the read metrics from it (setReads). The
// reads that start in the first capacityWarmup open the connections and
// are not timed.
func readCapacity(r *run, d *daemon) error {
	n := runtime.NumCPU()
	reads := make([][]timedRead, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now().Add(capacityWarmup)
	stop := start.Add(capacityPhase)
	for i := 0; i < n; i++ {
		c := newClient(d, &atomic.Int64{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.http.CloseIdleConnections()
			for time.Now().Before(stop) {
				cl, err := c.do("GET", "/tables/bench/matches?min=0.5", "matches", false, nil, nil)
				if err != nil {
					errs[i] = err
					return
				}
				if cl.start.Before(start) {
					continue
				}
				reads[i] = append(reads[i], timedRead{end: cl.end, ms: ms(cl.end.Sub(cl.start))})
			}
		}()
	}
	wg.Wait()
	all := slices.Concat(reads...)
	tried := len(all)
	for _, err := range errs {
		if err != nil {
			tried++
		}
	}
	r.ops(tried, errs)
	if len(all) == 0 {
		return errors.New("no read completed in the capacity phase")
	}
	r.setReads(start, all)
	r.note("capacity", map[string]any{"clients": n, "reads": len(all), "seconds": time.Since(start).Seconds()})
	return nil
}

// checkService compares the service's final matches with a library
// Resolve of the same table and options, and scores them.
func checkService(r *run, d *daemon, c *client) {
	var got struct {
		Matches []struct {
			A          int     `json:"a"`
			B          int     `json:"b"`
			Confidence float64 `json:"confidence"`
		} `json:"matches"`
	}
	if _, err := c.do("GET", "/tables/bench/matches", "matches", false, nil, &got); r.op(err) != nil {
		return
	}
	served := make([]crowder.Match, len(got.Matches))
	for i, m := range got.Matches {
		served[i] = crowder.Match{Pair: crowder.Pair{A: m.A, B: m.B}, Confidence: m.Confidence}
	}
	want, err := crowder.Resolve(d.in.table(len(d.in.rows)), crowder.Options{
		Threshold: serviceTau, HITType: crowder.PairHITs, ClusterSize: 10,
		Oracle: d.in.oracle, Seed: d.seed,
	})
	if r.op(err) != nil {
		return
	}
	r.check("service_matches_equal_library", sameMatches(served, want.Matches),
		fmt.Sprintf("service %d matches, library %d", len(served), len(want.Matches)))
	r.check("all_responses_2xx", d.failedRequests.Load() == 0, fmt.Sprintf("%d requests failed or answered non-2xx", d.failedRequests.Load()))
	r.set("f1", d.in.score(served, len(d.in.rows)).f1())
}
