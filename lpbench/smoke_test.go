package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"

	"looppoint/internal/core"
	"looppoint/internal/workloads"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func unitsOf(ms []struct{ Name, Unit string }) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestSmoke runs every workload once at the tiny size, untraced and
// traced, and requires a correct result carrying exactly the metrics
// BENCHMARK.json declares for that mode, each with its declared unit.
func TestSmoke(t *testing.T) {
	b := readBenchmarkFile(t)
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := workloadNames(); !equalStrings(got, declared) {
		t.Fatalf("workloads: lpbench runs %v, BENCHMARK.json declares %v", got, declared)
	}
	modes := []struct {
		trace bool
		units map[string]string
	}{{false, unitsOf(b.EndToEnd)}, {true, unitsOf(b.PerLayer)}}
	for _, w := range declared {
		for _, m := range modes {
			o := options{workload: w, seed: referenceSeed, seconds: 0.2, trace: m.trace, size: "tiny", out: t.TempDir()}
			res, err := runBench(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, m.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, m.trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(m.units) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w, m.trace, len(res.Metrics), len(m.units))
			}
			for name, unit := range m.units {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not printed", w, m.trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s printed in %q, declared %q", w, m.trace, name, got.Unit, unit)
				}
			}
		}
	}
}

// TestGateCatchesBrokenSelection breaks a real selection's invariants
// and its digest inputs one at a time and requires the gate to notice.
func TestGateCatchesBrokenSelection(t *testing.T) {
	spec, _ := workloads.Lookup("657.xz_s.2")
	app, err := spec.Build(workloads.BuildParams{Input: workloads.InputTest})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(app.Prog, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := core.Select(a)
	if err != nil {
		t.Fatal(err)
	}
	var ok tally
	checkSelection(&ok, "intact", sel)
	if ok.failed != 0 {
		t.Fatalf("intact selection failed the gate: %v", ok.failures)
	}
	d0 := selectionDigest(sel, 1e6)
	if selectionDigest(sel, 1e6+1) == d0 {
		t.Error("digest ignores the predicted cycles")
	}

	lp := &sel.Points[0]
	weight, mult := lp.Weight, lp.Multiplier
	lp.Weight += 1e-6
	var w tally
	checkSelection(&w, "weights", sel)
	if w.failed != 1 {
		t.Errorf("weights off by 1e-6: %d failures, want 1", w.failed)
	}
	lp.Weight = weight

	lp.Multiplier *= 2
	if selectionDigest(sel, 1e6) == d0 {
		t.Error("digest ignores the multipliers")
	}
	lp.Multiplier = mult

	sel.Analysis.Profile.Regions[0].Filtered++
	var f tally
	checkSelection(&f, "filtered", sel)
	if f.failed != 1 {
		t.Errorf("regions not tiling the filtered total: %d failures, want 1", f.failed)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
