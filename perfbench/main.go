// Command perfbench is CrowdER's seeded benchmark. One invocation runs
// one workload through the public API, checks its outputs, and prints
// the workload's metrics as the last line of standard output:
//
//	perfbench --workload session-delta --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same work
// with spans recorded around every layer call and reports the per-layer
// metrics instead (see README.md). Build and run it from the repository
// root with `bash perfbench/run.sh ...`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"session-delta": runSessionDelta,
	"paper-oneshot": runPaperOneshot,
	"scale-join":    runScaleJoin,
	"service-mixed": runServiceMixed,
}

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: session-delta, paper-oneshot, scale-join or service-mixed")
	seed := fs.Int64("seed", 1, "seed every input and Options.Seed derive from")
	seconds := fs.Float64("seconds", 10, "target measuring time; each workload's minimum work is fixed (README.md)")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for session stores, temporary files and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	tmp, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	r := newRun(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, tmp)
	if err := drive(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	if r.tr != nil {
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 2
		}
		r.note("trace", map[string]any{"spans_file": path})
	}
	return r.finish(stdout, stderr)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation's state: inputs, operation and check accounting,
// and the metrics the workload reports.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	tmp      string
	tr       *Tracer // nil unless traced
	acc      layerAcc

	attempted, failed int
	failures          []string
	values            map[string]float64
	notes             []string
}

func newRun(workload string, seed int64, seconds time.Duration, traced bool, tmp string) *run {
	r := &run{workload: workload, seed: seed, seconds: seconds, traced: traced, tmp: tmp, values: map[string]float64{}}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// op counts one attempted operation, failed when err is non-nil.
func (r *run) op(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
	return err
}

// ops counts n attempted operations, of which those that returned the
// non-nil errors failed.
func (r *run) ops(n int, errs []error) {
	r.attempted += n
	for _, err := range errs {
		if err != nil {
			r.failed++
			r.failures = append(r.failures, err.Error())
		}
	}
}

// check records a correctness check; a failed check counts as a failed
// operation.
func (r *run) check(name string, ok bool, detail string) {
	r.note("check", map[string]any{"name": name, "ok": ok, "detail": detail})
	if !ok {
		_ = r.op(fmt.Errorf("check %s failed: %s", name, detail))
	}
}

// set records a metric value by name.
func (r *run) set(name string, v float64) { r.values[name] = v }

// note queues one informational JSON line printed before the result.
func (r *run) note(kind string, v any) {
	b, err := json.Marshal(map[string]any{kind: v})
	if err != nil {
		b = []byte(fmt.Sprintf("{%q: %q}", kind, err.Error()))
	}
	r.notes = append(r.notes, string(b))
}

// derive returns a seed for one purpose, derived from the run's seed
// with a splitmix64 step so that neighbouring run seeds give unrelated
// streams.
func (r *run) derive(purpose string) int64 {
	z := uint64(r.seed)
	for _, c := range purpose {
		z = z*31 + uint64(c)
	}
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & (1<<62 - 1))
}

// finish prints the host facts, notes and the result line, and returns
// the exit code: 0 only when every check passed and no operation
// failed.
func (r *run) finish(stdout, stderr io.Writer) int {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !r.traced {
			_ = r.op(fmt.Errorf("end-to-end metric %s was not measured", d.name))
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Correct = r.failed == 0
	fmt.Fprintln(stdout, hostLine(r))
	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(stderr, "perfbench: %s: FAIL: %s\n", r.workload, f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// hostLine records the host facts every run carries.
func hostLine(r *run) string {
	b, _ := json.Marshal(map[string]any{"host": map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"traced":     r.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}})
	return string(b)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
