package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// lastLine decodes the result line a run printed.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func measured() *run {
	r := newRun("test", 1, 0, false, "")
	for _, d := range endToEnd {
		r.set(d.name, 1)
	}
	return r
}

func TestFailedCheckExitsNonZero(t *testing.T) {
	r := measured()
	r.attempted = 10
	r.check("matches_identical", false, "3 vs 4 matches")
	var out, errOut bytes.Buffer
	if code := r.finish(&out, &errOut); code == 0 {
		t.Fatal("a failed check exited 0")
	}
	res := lastLine(t, out.String())
	if res.Correct || res.Failed != 1 || res.Attempted != 11 {
		t.Errorf("result = correct %v, failed %d of %d; want false, 1 of 11", res.Correct, res.Failed, res.Attempted)
	}
	if !strings.Contains(errOut.String(), "matches_identical") {
		t.Errorf("stderr does not name the failed check: %q", errOut.String())
	}
}

func TestPassingRunExitsZeroWithEveryEndToEndMetric(t *testing.T) {
	r := measured()
	r.attempted = 5
	r.check("ok", true, "")
	var out, errOut bytes.Buffer
	if code := r.finish(&out, &errOut); code != 0 {
		t.Fatalf("passing run exited %d: %s", code, errOut.String())
	}
	res := lastLine(t, out.String())
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result = %+v", res)
	}
}

func TestMissingEndToEndMetricFailsTheRun(t *testing.T) {
	r := measured()
	delete(r.values, "f1")
	var out, errOut bytes.Buffer
	if code := r.finish(&out, &errOut); code == 0 || lastLine(t, out.String()).Correct {
		t.Error("a run missing an end-to-end metric passed")
	}
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	r := newRun("test", 1, 0, true, "")
	var out, errOut bytes.Buffer
	if code := r.finish(&out, &errOut); code != 0 {
		t.Fatalf("traced run exited %d", code)
	}
	if res := lastLine(t, out.String()); len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run reported %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
}

func TestUnknownWorkloadExitsNonZeroWithoutResult(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := mainCode([]string{"--workload", "nope", "--workdir", t.TempDir()}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("printed a result for an unknown workload: %q", out.String())
	}
}

// TestBenchmarkJSONMatchesTheMetricTables keeps BENCHMARK.json and the
// metric tables in step.
func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	same := func(kind string, got []named, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestDeriveSeparatesPurposesAndSeeds(t *testing.T) {
	a, b := newRun("w", 1, 0, false, ""), newRun("w", 2, 0, false, "")
	if a.derive("crowd") == a.derive("shuffle") || a.derive("crowd") == b.derive("crowd") {
		t.Error("derived seeds collide")
	}
	if a.derive("crowd") != newRun("w", 1, 0, false, "").derive("crowd") {
		t.Error("derive is not deterministic")
	}
}
