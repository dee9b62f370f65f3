package core

import (
	"testing"

	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/pinball"
	"looppoint/internal/simpoint"
	"looppoint/internal/timing"
)

// The reference pipeline: the engines the production fast paths
// replaced, run end to end as the oracle TestFastSlowPathsByteIdentical
// compares Analyze, Select, and SimulateRegionsN against. BBV collection
// runs on the per-instruction observer tier, clustering on the naive
// projection and serial k-means, and region simulation fast-forwards one
// instruction at a time.

// analyzeReference is analyzeSerial with the BBV collector driven one
// instruction at a time.
func analyzeReference(t *testing.T, prog *isa.Program, cfg Config) *Analysis {
	t.Helper()
	cfg.fill()
	pb, err := pinball.RecordWithOptions(prog, cfg.Seed, exec.RunOpts{
		FlowWindow:  cfg.FlowWindow,
		QuantumBias: cfg.HostBias,
	})
	if err != nil {
		t.Fatalf("reference record: %v", err)
	}
	db := dcfg.NewBuilder(prog, prog.NumThreads())
	if _, err := pb.Replay(prog, db); err != nil {
		t.Fatalf("reference DCFG replay: %v", err)
	}
	g := db.Graph()
	loops := g.FindLoops()
	markers, modulus, err := markersAndModulus(prog, &cfg, pb, g, loops)
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector(prog, &cfg, markers, modulus)
	// ObserverFunc hides the collector's block-tier method, so Replay
	// attaches it to the per-instruction tier.
	if _, err := pb.Replay(prog, exec.ObserverFunc(col.OnInstr)); err != nil {
		t.Fatalf("reference BBV replay: %v", err)
	}
	return &Analysis{
		Prog: prog, Pinball: pb, Graph: g, Loops: loops,
		Markers: markers, Profile: col.Finish(), Config: cfg,
	}
}

// selectReference is Select for the medoid engine on the naive
// projection and the serial reference k-means sweep.
func selectReference(t *testing.T, a *Analysis) *Selection {
	t.Helper()
	cfg := a.Config
	if cfg.Selector != "simpoint" {
		t.Fatalf("reference selection covers the simpoint engine, not %q", cfg.Selector)
	}
	project := simpoint.ProjectRegionsSlow
	if cfg.SumBBVs {
		project = simpoint.SumProjectRegionsSlow
	}
	regions := a.Profile.Regions
	vectors := project(regions, a.Profile.NumBlocks, cfg.Dims, cfg.Seed)
	weights := regionWeights(regions)
	res, err := simpoint.ClusterSlow(vectors, weights, simpoint.Options{MaxK: cfg.MaxK, Seed: cfg.Seed})
	if err != nil {
		t.Fatalf("reference clustering: %v", err)
	}
	return newSelection(a, vectors, simpoint.MedoidSelection(res, weights))
}

// simulateReference simulates every looppoint serially on a fresh
// simulator with the per-instruction fast-forward.
func simulateReference(t *testing.T, sel *Selection, simCfg timing.Config) []RegionResult {
	t.Helper()
	a := sel.Analysis
	checkpoints, err := extractCheckpoints(sel)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]RegionResult, len(sel.Points))
	for i, lp := range sel.Points {
		sim, err := timing.New(simCfg, a.Prog)
		if err != nil {
			t.Fatal(err)
		}
		sim.Seed = a.Config.Seed
		var st *timing.Stats
		if checkpoints != nil {
			st, err = sim.SimulateCheckpointReference(checkpoints[i])
		} else {
			st, err = sim.SimulateRegionReference(lp.Region.Start, lp.Region.End, a.Config.Warmup)
		}
		if err != nil {
			t.Fatalf("reference region %d: %v", lp.Region.Index, err)
		}
		out[i] = RegionResult{Point: lp, Stats: st}
	}
	return out
}
