package core

import (
	"fmt"
	"reflect"
	"testing"

	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
	"looppoint/internal/timing"
	"looppoint/internal/workloads"
)

// TestSimulateRegionsWidthInvariant requires identical per-region
// statistics and an identical extrapolated prediction at every pool
// width: each region gets its own simulator seeded the same way, so
// worker scheduling must not leak into the results.
func TestSimulateRegionsWidthInvariant(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	a, err := Analyze(p, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	freq := timing.Gainestown(1).FreqGHz
	base, err := SimulateRegionsN(sel, timing.Gainestown(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	basePred := Extrapolate(base, freq)
	for _, width := range []int{2, 4, 8} {
		res, err := SimulateRegionsN(sel, timing.Gainestown(4), width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if len(res) != len(base) {
			t.Fatalf("width %d: %d results, want %d", width, len(res), len(base))
		}
		for i := range res {
			if res[i].Point.Region.Index != base[i].Point.Region.Index {
				t.Errorf("width %d: result %d is region %d, want %d (ordering unstable)",
					width, i, res[i].Point.Region.Index, base[i].Point.Region.Index)
			}
			// Full deep equality: the simulator-arena reuse path must
			// leave no residue regardless of which worker simulated which
			// region, so every counter — not just the headline three —
			// must match the width-1 sweep bit-for-bit.
			if !reflect.DeepEqual(res[i].Stats, base[i].Stats) {
				t.Errorf("width %d: region %d stats differ from width 1:\n%+v\nvs\n%+v",
					width, i, res[i].Stats, base[i].Stats)
			}
		}
		if pred := Extrapolate(res, freq); pred != basePred {
			t.Errorf("width %d: prediction differs from width 1:\n%+v\nvs\n%+v",
				width, pred, basePred)
		}
	}
}

// TestSelectClusterWorkersInvariant requires the clustering stage — BBV
// projection and the parallel k=1..maxK BIC sweep — to produce an
// identical selection at every worker width: per-k seeding is fixed and
// attempts are gathered by k, so pool scheduling must not leak into the
// chosen k, the assignments, or the multipliers.
func TestSelectClusterWorkersInvariant(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	base := func() *Selection {
		cfg := testConfig()
		cfg.ClusterWorkers = 1
		a, err := Analyze(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Select(a)
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}()
	for _, workers := range []int{2, 8} {
		cfg := testConfig()
		cfg.ClusterWorkers = workers
		a, err := Analyze(p, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sel, err := Select(a)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(base.Result, sel.Result) {
			t.Errorf("workers=%d: clustering Result differs from workers=1", workers)
		}
		if !reflect.DeepEqual(base.Points, sel.Points) {
			t.Errorf("workers=%d: looppoint selection differs from workers=1", workers)
		}
	}
}

// TestFastSlowPathsByteIdentical runs the entire methodology — analysis,
// clustering, checkpoint extraction, region simulation, extrapolation —
// once on the production fast paths and once on the reference pipeline
// (reference_test.go), and requires every model-derived artifact to be
// byte-identical: BBV profiles, marker sets, looppoint selections,
// per-region statistics, and the final prediction. Host time is the only
// thing the fast paths are allowed to change. Besides the synthetic
// phased program, the table covers the quick SPEC suite under both wait
// policies at test scale — the programs behind the evaluation's accuracy
// and speedup figures.
func TestFastSlowPathsByteIdentical(t *testing.T) {
	type program struct {
		name string
		prog *isa.Program
		cfg  Config
	}
	programs := []program{{"phased", testprog.Phased(4, 10, 150, omp.Passive), testConfig()}}
	for _, app := range []string{"603.bwaves_s.1", "638.imagick_s.1", "644.nab_s.1", "657.xz_s.2"} {
		for _, policy := range []omp.WaitPolicy{omp.Active, omp.Passive} {
			spec, ok := workloads.Lookup(app)
			if !ok {
				t.Fatalf("unknown workload %s", app)
			}
			built, err := spec.Build(workloads.BuildParams{Threads: 8, Input: workloads.InputTest, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.SliceUnit = 2000
			programs = append(programs, program{fmt.Sprintf("%s-%v", app, policy), built.Prog, cfg})
		}
	}

	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			simCfg := timing.Gainestown(p.prog.NumThreads())
			freq := simCfg.FreqGHz
			fa, err := Analyze(p.prog, p.cfg)
			if err != nil {
				t.Fatal(err)
			}
			fsel, err := Select(fa)
			if err != nil {
				t.Fatal(err)
			}
			fres, err := SimulateRegionsN(fsel, simCfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			fpred := Extrapolate(fres, freq)

			sa := analyzeReference(t, p.prog, p.cfg)
			ssel := selectReference(t, sa)
			sres := simulateReference(t, ssel, simCfg)
			spred := Extrapolate(sres, freq)

			if !reflect.DeepEqual(fa.Markers, sa.Markers) {
				t.Errorf("marker sets differ:\nfast: %#x\nslow: %#x", fa.Markers, sa.Markers)
			}
			if !reflect.DeepEqual(fa.Profile, sa.Profile) {
				t.Error("BBV profiles differ between fast and slow paths")
			}
			if !reflect.DeepEqual(fsel.Points, ssel.Points) {
				t.Error("looppoint selections differ between fast and slow paths")
			}
			if len(fres) != len(sres) {
				t.Fatalf("result counts differ: %d vs %d", len(fres), len(sres))
			}
			for i := range fres {
				if !reflect.DeepEqual(fres[i].Stats, sres[i].Stats) {
					t.Errorf("region %d stats differ:\nfast: %+v\nslow: %+v",
						fres[i].Point.Region.Index, fres[i].Stats, sres[i].Stats)
				}
			}
			if fpred != spred {
				t.Errorf("predictions differ:\nfast: %+v\nslow: %+v", fpred, spred)
			}
		})
	}
}
