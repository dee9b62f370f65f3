// Command lpprofile runs only the "where to simulate" half of LoopPoint:
// it records a workload as a pinball, replays it for DCFG/loop analysis
// and BBV collection, clusters the regions, and prints the selected
// looppoints with their (PC, count) boundaries and multipliers — without
// any timing simulation. Useful for ref-scale inputs and for inspecting
// the region structure of a workload.
//
// The clustering stage fans out over a worker pool (-j N; 0 = one worker
// per CPU) and the selection is byte-identical at every width. -pprof-cpu /
// -pprof-heap write standard runtime/pprof profiles.
package main

import (
	"flag"
	"fmt"
	"os"

	"looppoint"
	"looppoint/internal/core"
	"looppoint/internal/faults"
	"looppoint/internal/pinball"
	"looppoint/internal/prof"
	"looppoint/internal/results"
)

func main() {
	var (
		program    = flag.String("p", "demo-matrix-1", "program to profile")
		ncores     = flag.Int("n", 8, "number of threads")
		inputClass = flag.String("i", "", "input class")
		waitPolicy = flag.String("w", "passive", "wait policy: passive or active")
		sliceUnit  = flag.Uint64("slice", 0, "per-thread slice unit (default 100000)")
		maxK       = flag.Int("maxk", 0, "maximum clusters (default 50)")
		selector   = flag.String("selector", "", "selection engine: simpoint, stratified, barrierpoint, timebased (default simpoint)")
		budget     = flag.Int("budget", 0, "stratified engine: total region draw budget (0 = 2x cluster count)")
		regions    = flag.Bool("regions", false, "also dump every profiled region")
		csv        = flag.Bool("csv", false, "emit CSV instead of a table")
		saveWhole  = flag.String("save-pinball", "", "save the whole-program pinball to this file")
		saveDir    = flag.String("save-regions", "", "extract each looppoint's region pinball into this directory")
		disasm     = flag.Bool("disasm", false, "print the generated program's disassembly and exit")
		jsonOut    = flag.String("json", "", "write the selection (markers + multipliers) as JSON to this file")
		dot        = flag.String("dot", "", "write the dynamic control-flow graph as Graphviz DOT to this file")
		verify     = flag.Bool("verify", false, "re-load every artifact written this run and check its integrity (checksums, version, structure)")
		jobs       = flag.Int("j", 0, "worker count for the checkpoint-parallel analysis front-end (DCFG/BBV replay shards; 0 = serial) and the clustering stage (0 = one worker per CPU); profile and selection are byte-identical at every setting")
		ckEvery    = flag.Uint64("checkpoint-every", 0, "shard width in schedule steps for the -j analysis sharding (0 = a deterministic default derived from the recording length)")
		pprofCPU   = flag.String("pprof-cpu", "", "write a CPU profile to this file")
		pprofHeap  = flag.String("pprof-heap", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*pprofCPU, *pprofHeap)
	if err != nil {
		fail(err)
	}
	defer stopProf()

	// FAULTS_PLAN/FAULTS_SEED inject deterministic faults without
	// recompiling (see internal/faults).
	if plan, err := faults.FromEnv(); err != nil {
		fail(err)
	} else if plan != nil {
		faults.Enable(plan)
	}

	policy := looppoint.Passive
	if *waitPolicy == "active" {
		policy = looppoint.Active
	}
	w, err := looppoint.BuildWorkload(*program, looppoint.WorkloadOptions{
		Threads: *ncores, Input: *inputClass, Policy: policy,
	})
	if err != nil {
		fail(err)
	}
	cfg := looppoint.DefaultConfig()
	if *sliceUnit != 0 {
		cfg.SliceUnit = *sliceUnit
	}
	if *maxK != 0 {
		cfg.MaxK = *maxK
	}
	cfg.ClusterWorkers = *jobs
	cfg.AnalyzeWorkers = *jobs
	cfg.CheckpointEvery = *ckEvery
	cfg.Selector = *selector
	cfg.SampleBudget = *budget
	if *disasm {
		if err := w.App.Prog.Disassemble(os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	sel, err := looppoint.Analyze(w, cfg)
	if err != nil {
		fail(err)
	}
	if *dot != "" {
		fdot, err := os.Create(*dot)
		if err != nil {
			fail(err)
		}
		if err := sel.Analysis.Graph.WriteDOT(fdot, sel.Analysis.Loops); err != nil {
			fail(err)
		}
		if err := fdot.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote DCFG to %s\n", *dot)
	}
	var savedPinballs []string
	if *saveWhole != "" {
		if err := sel.Analysis.Pinball.Save(*saveWhole); err != nil {
			fail(err)
		}
		fmt.Printf("wrote whole-program pinball to %s\n", *saveWhole)
		savedPinballs = append(savedPinballs, *saveWhole)
	}
	if *saveDir != "" {
		paths, err := looppoint.ExportRegionPinballs(sel, *saveDir)
		if err != nil {
			fail(err)
		}
		for i, path := range paths {
			lp := sel.Points[i]
			fmt.Printf("wrote %s (region %v..%v)\n", path, lp.Region.Start, lp.Region.End)
		}
		savedPinballs = append(savedPinballs, paths...)
	}
	if *jsonOut != "" {
		if err := sel.File().SaveJSON(*jsonOut); err != nil {
			fail(err)
		}
		fmt.Printf("wrote selection to %s\n", *jsonOut)
	}
	if *verify {
		// Read every artifact back through the same integrity-checked
		// loaders downstream tools use, so torn or corrupted writes are
		// caught now instead of mid-campaign.
		for _, path := range savedPinballs {
			if _, err := pinball.Load(path); err != nil {
				fail(fmt.Errorf("verify: %w", err))
			}
		}
		if *jsonOut != "" {
			f, err := os.Open(*jsonOut)
			if err != nil {
				fail(fmt.Errorf("verify: %w", err))
			}
			_, lerr := core.LoadSelectionFile(f)
			f.Close()
			if lerr != nil {
				fail(fmt.Errorf("verify %s: %w", *jsonOut, lerr))
			}
		}
		n := len(savedPinballs)
		if *jsonOut != "" {
			n++
		}
		fmt.Printf("verified %d artifact(s)\n", n)
	}

	prof := sel.Analysis.Profile
	fmt.Printf("%s: %d threads, %d instructions (%d filtered), %d regions, %d markers, %d loops\n",
		w.Name(), w.Threads(), prof.TotalICount, prof.TotalFiltered,
		len(prof.Regions), len(sel.Analysis.Markers), len(sel.Analysis.Loops.Loops))

	serial, parallel := looppoint.TheoreticalSpeedups(sel)
	fmt.Printf("theoretical speedup: %.1fx serial, %.1fx parallel\n\n", serial, parallel)

	t := &results.Table{
		Title:   "selected looppoints",
		Headers: []string{"region", "start", "end", "filtered instrs", "multiplier", "cluster size", "spread"},
	}
	for _, lp := range sel.Points {
		t.AddRow(lp.Region.Index, lp.Region.Start.String(), lp.Region.End.String(),
			lp.Region.Filtered, lp.Multiplier, lp.ClusterSize, lp.Spread)
	}
	emit(t, *csv)

	if *regions {
		// Non-clustering engines (e.g. timebased) carry no k-means result;
		// recover each region's stratum from the sample's membership lists.
		cluster := make([]int, len(prof.Regions))
		for i := range cluster {
			cluster[i] = -1
		}
		if sel.Result != nil {
			cluster = sel.Result.Assign
		} else if sel.Sample != nil {
			for h, st := range sel.Sample.Strata {
				for _, m := range st.Members {
					if m >= 0 && m < len(cluster) {
						cluster[m] = h
					}
				}
			}
		}
		rt := &results.Table{
			Title:   "all regions",
			Headers: []string{"region", "start", "end", "filtered", "unfiltered", "cluster"},
		}
		for i, r := range prof.Regions {
			rt.AddRow(r.Index, r.Start.String(), r.End.String(), r.Filtered,
				r.UnfilteredLen(), cluster[i])
		}
		emit(rt, *csv)
	}
}

func emit(t *results.Table, csv bool) {
	if csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "lpprofile: %v\n", err)
	os.Exit(1)
}
