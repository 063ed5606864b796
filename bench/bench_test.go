package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the root BENCHMARK.json, the contract the driver reads.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatches holds BENCHMARK.json and the program's own
// tables equal: workload names and reasons, metric names, units,
// directions and bounds, in order.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bm.Workloads[i].Name, bm.Workloads[i].Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or reason", w.name)
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bm.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if g := bm.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bm.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if g := bm.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", d.name, d.unit)
		}
		seen[d.name] = true
	}
}

func quickRun(t *testing.T, workload string, seed uint64, trace bool) *result {
	t.Helper()
	w, ok := findWorkload(workload)
	if !ok {
		t.Fatalf("no workload %q", workload)
	}
	res, err := runWorkload(w, options{seed: seed, trace: trace, quick: true, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace=%v: %d of %d operations failed: %v", workload, trace, res.Failed, res.Attempted, res.Problems)
	}
	defs := defsFor(trace)
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s trace=%v: %d metrics emitted, %d defined", workload, trace, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if s, ok := res.Metrics[d.name]; !ok || s.Unit != d.unit {
			t.Errorf("%s trace=%v: metric %s missing or in unit %q, want %q", workload, trace, d.name, s.Unit, d.unit)
		}
	}
	return res
}

// TestQuickWorkloads runs every workload at test size in both modes: the
// emitted metrics are exactly the defined sets, nothing fails, and the
// traced run's spans cover the traced wall.
func TestQuickWorkloads(t *testing.T) {
	rec := record{Workloads: map[string]*result{}}
	for _, w := range workloads {
		plain := quickRun(t, w.name, defaultSeed, false)
		traced := quickRun(t, w.name, defaultSeed, true)
		if c := traced.Metrics["bench.span_coverage_pct"].Median; c < 95 {
			t.Errorf("%s: spans cover %.1f%% of the traced wall, want >= 95%%", w.name, c)
		}
		var trace struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if data, err := os.ReadFile(traced.TraceFile); err != nil || json.Unmarshal(data, &trace) != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace file %q is not Chrome trace JSON (%v)", w.name, traced.TraceFile, err)
		}
		if f := traced.Metrics["failed_frac"].Median; f != 0 {
			t.Errorf("%s: failed_frac %v", w.name, f)
		}
		traced.merge(plain)
		rec.Workloads[w.name] = traced
	}
	// A real record compared with itself has no regression and no drift.
	path := filepath.Join(t.TempDir(), "a.json")
	data, _ := json.Marshal(rec)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if ok, err := compareFiles(&out, path, path); err != nil || !ok {
		t.Errorf("a record compared with itself: ok=%v err=%v\n%s", ok, err, out.String())
	}
}

// TestCountsRepeatAndSeedsMatter: the same seed twice gives identical
// exact counts; another seed changes the stimulus and the simulated
// statistics but not one count the compiler produced.
func TestCountsRepeatAndSeedsMatter(t *testing.T) {
	a := quickRun(t, "fleet-mix", defaultSeed, true)
	b := quickRun(t, "fleet-mix", defaultSeed, true)
	c := quickRun(t, "fleet-mix", defaultSeed+1, true)
	for _, d := range perLayer {
		if !d.exact {
			continue
		}
		if a.Metrics[d.name].Median != b.Metrics[d.name].Median {
			t.Errorf("%s: %v then %v on the same seed", d.name, a.Metrics[d.name].Median, b.Metrics[d.name].Median)
		}
		layer := layerOf(d.name)
		if (layer == "codegen" || layer == "partition" || layer == "dedup" || layer == "firrtl") && a.Metrics[d.name].Median != c.Metrics[d.name].Median {
			t.Errorf("%s: %v on one seed, %v on another", d.name, a.Metrics[d.name].Median, c.Metrics[d.name].Median)
		}
	}
	if a.StimulusDigest != b.StimulusDigest || a.StimulusDigest == c.StimulusDigest {
		t.Errorf("stimulus digests: same seed %s and %s, other seed %s", a.StimulusDigest, b.StimulusDigest, c.StimulusDigest)
	}
}

// TestCompareVerdicts pins the three verdicts and count drift on made-up
// records, where the spread is chosen rather than measured.
func TestCompareVerdicts(t *testing.T) {
	base := func() record {
		r := record{Workloads: map[string]*result{"single-small": {Correct: true, Attempted: 10, Metrics: map[string]Sample{
			"sim_khz":         {N: 9, Median: 100, Q1: 99, Q3: 101, Unit: "kHz"},
			"compile_s":       {N: 9, Median: 1, Q1: 0.99, Q3: 1.01, Unit: "s"},
			"codegen.kernels": {N: 1, Median: 59, Q1: 59, Q3: 59, Unit: "count", Exact: true},
		}}}}
		return r
	}
	write := func(name string, r record) string {
		path := filepath.Join(t.TempDir(), name)
		data, _ := json.Marshal(r)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", base())
	for _, tc := range []struct {
		name   string
		edit   func(*result)
		ok     bool
		expect string
	}{
		{"same", func(*result) {}, true, "ok"},
		{"slower", func(r *result) { r.Metrics["sim_khz"] = Sample{N: 9, Median: 60, Q1: 59, Q3: 61, Unit: "kHz"} }, false, "regressed"},
		{"noisy", func(r *result) { r.Metrics["compile_s"] = Sample{N: 9, Median: 1, Q1: 0.7, Q3: 1.3, Unit: "s"} }, true, "unresolved"},
		{"drift", func(r *result) {
			r.Metrics["codegen.kernels"] = Sample{N: 1, Median: 60, Q1: 60, Q3: 60, Unit: "count", Exact: true}
		}, false, "count drift"},
	} {
		rb := base()
		tc.edit(rb.Workloads["single-small"])
		var out strings.Builder
		ok, err := compareFiles(&out, a, write("b.json", rb))
		if err != nil || ok != tc.ok || !strings.Contains(out.String(), tc.expect) {
			t.Errorf("%s: ok=%v err=%v, want ok=%v and %q in:\n%s", tc.name, ok, err, tc.ok, tc.expect, out.String())
		}
		if tc.name == "same" && (strings.Contains(out.String(), "regressed") || strings.Contains(out.String(), "unresolved")) {
			t.Errorf("a tight record compared with itself is not all ok:\n%s", out.String())
		}
	}
}
