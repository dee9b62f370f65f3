package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"looppoint/internal/bbv"
	"looppoint/internal/core"
	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/timing"
	"looppoint/internal/workloads"
)

// referenceSeed is core.DefaultConfig's seed: the configuration whose
// selection digest is stored with the benchmark.
var referenceSeed = core.DefaultConfig().Seed

// A run times its set-up in batches and reports the median batch's time
// per round. One round, Spec.Build of the workload's program, takes about
// 30 µs, so a single round mostly measures how fast the host is at that
// instant; a batch repeats it setupBatch times, about 60 ms. A run takes
// at least setupSamples batches.
const (
	setupSamples = 7
	setupBatch   = 2000
)

// pipelineWorkload is a workload that runs one program through the
// sampled pipeline in process, repeatedly, each time followed by the
// full detailed simulation it stands in for.
type pipelineWorkload struct {
	name string
	app  string
	// input is the input class; tiny replaces it in the smoke test.
	input, tiny workloads.InputClass
	// durable analyzes checkpoint-parallel at width nproc with durable
	// progress in a fresh directory per repetition.
	durable bool
}

var pipelineWorkloads = []pipelineWorkload{
	{name: "cg-analyze", app: "npb-cg", input: workloads.ClassC, tiny: workloads.ClassA},
	{name: "xz-sim", app: "657.xz_s.2", input: workloads.InputTrain, tiny: workloads.InputTest},
	{name: "imagick-durable", app: "638.imagick_s.1", input: workloads.InputTrain, tiny: workloads.InputTest, durable: true},
}

func init() {
	for _, w := range pipelineWorkloads {
		w := w
		workloadRunners[w.name] = func(r *run) error { return r.runPipeline(w) }
	}
}

func (w pipelineWorkload) inputFor(size string) workloads.InputClass {
	if size == "tiny" {
		return w.tiny
	}
	return w.input
}

// config is the workload's methodology configuration at a seed. Widths
// equal nproc; durable runs get their own progress directory and
// counters.
func (r *run) config(w pipelineWorkload, seed uint64, progressDir string, stats *core.ProgressStats) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.ClusterWorkers = r.nproc
	if w.durable {
		cfg.AnalyzeWorkers = r.nproc
		cfg.ProgressDir = progressDir
		cfg.Progress = stats
	}
	return cfg
}

// setUp is a workload's set-up round and the timing of its batches. A
// run times one batch before anything else and one after each timed
// repetition, so the batches span the whole run and setup_s does not
// hang on the host's speed during its first half second.
type setUp struct {
	r     *run
	round func(rid string) error
}

// once times one batch of rounds. The batch starts from a collected
// heap, like a repetition, so the two do not pay for each other's
// garbage and the batches do not raise peak RSS.
func (s *setUp) once() error {
	rid := fmt.Sprintf("setup/%d", len(s.r.samples["setup"]))
	runtime.GC()
	var err error
	d := timed(func() {
		for i := 0; i < setupBatch && err == nil; i++ {
			err = s.round(rid)
		}
	})
	if err != nil {
		return err
	}
	s.r.sample("setup", d.Seconds()/setupBatch)
	s.r.sample("workloads.build_s", s.r.tr.sumIn(rid, "workloads.Build").Seconds()/setupBatch)
	return nil
}

// finish tops the batches up to setupSamples and records setup_s (or,
// traced, workloads.build_s) as the median batch's time per round;
// setup_s is multiplied by the host clock's scale.
func (s *setUp) finish(scale float64) error {
	for len(s.r.samples["setup"]) < setupSamples {
		if err := s.once(); err != nil {
			return err
		}
	}
	if s.r.o.trace {
		s.r.setMedian("workloads.build_s")
	} else {
		s.r.set("setup_s", median(s.r.samples["setup"])*scale)
	}
	return nil
}

// build looks up and builds one program, in a span when traced.
func (r *run) build(rid, name string, input workloads.InputClass) (*workloads.App, error) {
	spec, ok := workloads.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown program %s", name)
	}
	var app *workloads.App
	err := r.tr.call("workloads.Build", 0, rid, func(int) error {
		var err error
		app, err = spec.Build(workloads.BuildParams{Threads: 8, Input: input, Policy: omp.Passive})
		return err
	})
	return app, err
}

// sampledRun is one pass of the sampled pipeline: Analyze, Select,
// SimulateRegionsN and Extrapolate.
type sampledRun struct {
	a       *core.Analysis
	sel     *core.Selection
	regions []core.RegionResult
	pred    core.Prediction
	// took spans Analyze to Extrapolate; analyzeTook is its Analyze part.
	took, analyzeTook time.Duration
}

func (r *run) sampled(tr *tracer, rid string, parent int, prog *isa.Program, cfg core.Config, simCfg timing.Config) (*sampledRun, error) {
	s := &sampledRun{}
	id := tr.begin("sampled", parent, rid)
	start := time.Now()
	err := tr.call("core.Analyze", id, rid, func(int) error {
		var err error
		s.a, err = core.Analyze(prog, cfg)
		return err
	})
	s.analyzeTook = time.Since(start)
	if err == nil {
		err = tr.call("core.Select", id, rid, func(int) error {
			var err error
			s.sel, err = core.Select(s.a)
			return err
		})
	}
	if err == nil {
		err = tr.call("core.SimulateRegionsN", id, rid, func(int) error {
			var err error
			s.regions, err = core.SimulateRegionsN(s.sel, simCfg, r.nproc)
			return err
		})
	}
	if err == nil {
		tr.call("core.Extrapolate", id, rid, func(int) error {
			s.pred = core.Extrapolate(s.regions, simCfg.FreqGHz)
			return nil
		})
	}
	s.took = time.Since(start)
	tr.end(id)
	return s, err
}

// fullSim runs the whole-program detailed simulation the paper compares
// against.
func (r *run) fullSim(tr *tracer, rid string, parent int, prog *isa.Program, seed uint64, simCfg timing.Config) (*timing.Stats, time.Duration, error) {
	var st *timing.Stats
	start := time.Now()
	err := tr.call("timing.SimulateFull", parent, rid, func(int) error {
		sim, err := timing.New(simCfg, prog)
		if err != nil {
			return err
		}
		sim.Seed = seed
		st, err = sim.SimulateFull()
		return err
	})
	return st, time.Since(start), err
}

// runPipeline runs a pipeline workload: set-up, the reference run (which
// is also the untimed warm-up), then repetitions at the run's seed until
// the window closes. sampled_s and full_s are medians over the
// repetitions.
func (r *run) runPipeline(w pipelineWorkload) error {
	var app *workloads.App
	setup := &setUp{r: r, round: func(rid string) error {
		var err error
		app, err = r.build(rid, w.app, w.inputFor(r.o.size))
		return err
	}}
	if err := setup.once(); err != nil {
		return err
	}
	r.clock.once()
	prog := app.Prog
	simCfg := timing.Gainestown(prog.NumThreads())

	ref, err := r.reference(w, prog, simCfg)
	if err != nil {
		return err
	}

	// Timed repetitions. A traced run alternates untraced and traced
	// repetitions so the two sampled_s values see the same host drift.
	var untracedSampled, tracedSampled, fullTimes []float64
	var digest0 string
	win := newWindow(r.o.seconds)
	// At least three repetitions, even when one outlasts the window, so
	// every median has a middle value.
	const minReps = 3
	var reps int
	for i := 0; win.next(i, minReps); i++ {
		reps = i + 1
		traced := r.o.trace && i%2 == 1
		// Every repetition starts from a collected heap, as a one-job
		// process would, instead of paying for the previous one's garbage.
		runtime.GC()
		out, err := r.pipelineRep(w, prog, simCfg, i, traced)
		if !r.op(err == nil, "%s rep %d: %v", w.name, i, err) {
			continue
		}
		if digest0 == "" {
			digest0 = out.digest
		}
		r.op(out.digest == digest0, "%s rep %d: digest %s differs from the run's first repetition %s", w.name, i, out.digest, digest0)
		if r.o.seed == referenceSeed {
			r.op(out.digest == ref.digest, "%s rep %d: digest %s differs from the reference %s at the same seed", w.name, i, out.digest, ref.digest)
		}
		if traced {
			tracedSampled = append(tracedSampled, out.sampled.Seconds())
		} else {
			untracedSampled = append(untracedSampled, out.sampled.Seconds())
			fullTimes = append(fullTimes, out.full.Seconds())
		}
		if err := setup.once(); err != nil {
			return err
		}
		r.clock.keepUp(win.elapsed())
	}
	r.logf("# %s: %d repetitions in %.2fs", w.name, reps, win.elapsed().Seconds())
	scale := 1.0 // per-layer metrics are measured times
	if !r.o.trace {
		scale = r.clock.scale()
	}
	if err := setup.finish(scale); err != nil {
		return err
	}

	if r.o.trace {
		r.set("trace.overhead_s", median(tracedSampled)-median(untracedSampled))
		for _, name := range append(layerSampleNames, "timing.full_minstr_per_s", "core.progress_saves", "core.progress_bytes") {
			r.setMedian(name)
		}
		return r.serveReference(w, ref)
	}

	r.logf("# host clock: calibration round %.1f µs (median of %d batches), scale %.4f; measured sampled %.4fs, full %.4fs, set-up %.3f µs",
		median(r.clock.rounds)*1e6, len(r.clock.rounds), scale, median(untracedSampled), median(fullTimes), median(r.samples["setup"])*1e6)
	r.set("sampled_s", median(untracedSampled)*scale)
	r.set("full_s", median(fullTimes)*scale)
	r.set("runtime_err_pct", ref.errPct)
	return nil
}

// referenceRun is the outcome of the reference configuration.
type referenceRun struct {
	digest string
	cycles float64
	points int
	errPct float64
}

// reference runs core.Run with the full simulation at the reference
// seed, checks its digest against the stored one, and yields the
// runtime error. It is also the run's untimed warm-up.
func (r *run) reference(w pipelineWorkload, prog *isa.Program, simCfg timing.Config) (*referenceRun, error) {
	dir, err := r.freshDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	stats := &core.ProgressStats{}
	cfg := r.config(w, referenceSeed, dir, stats)
	rid := w.name + "/reference"
	var rep *core.Report
	err = r.tr.call("core.Run", 0, rid, func(int) error {
		var err error
		rep, err = core.Run(prog, cfg, simCfg, core.RunOpts{SimulateFull: true, Width: r.nproc})
		return err
	})
	if !r.op(err == nil, "%s reference run: %v", w.name, err) {
		return nil, fmt.Errorf("%s reference run: %w", w.name, err)
	}
	checkSelection(&r.tally, w.name+" reference", rep.Selection)
	if w.durable {
		_, _, recoveries, _, _ := stats.Snapshot()
		r.op(recoveries == 0, "%s reference: %d durable recoveries in a fresh progress directory", w.name, recoveries)
	}
	ref := &referenceRun{
		digest: selectionDigest(rep.Selection, rep.Predicted.Cycles),
		cycles: rep.Predicted.Cycles, points: len(rep.Selection.Points),
		errPct: rep.RuntimeErrPct,
	}
	stored, err := storedDigest(r.o.size, w.name)
	r.op(err == nil && stored == ref.digest, "%s reference digest %s, stored %q (%v)", w.name, ref.digest, stored, err)
	r.logf("# %s reference (seed %d): digest %s, %d looppoints, runtime error %.4f%%, full simulation %.3fs",
		w.name, referenceSeed, ref.digest, ref.points, ref.errPct, rep.FullHostTime.Seconds())
	if r.o.trace {
		r.sample("timing.full_minstr_per_s", float64(rep.Full.Instructions)/1e6/rep.FullHostTime.Seconds())
	}
	return ref, nil
}

// repOut is what one timed repetition reports.
type repOut struct {
	sampled, full time.Duration
	digest        string
}

// pipelineRep runs one repetition at the run's seed; traced
// repetitions also replay each layer separately to time it.
func (r *run) pipelineRep(w pipelineWorkload, prog *isa.Program, simCfg timing.Config, i int, traced bool) (repOut, error) {
	var out repOut
	tr := (*tracer)(nil)
	if traced {
		tr = r.tr
	}
	rid := fmt.Sprintf("%s/%d", w.name, i)
	dir := ""
	if w.durable {
		var err error
		if dir, err = r.freshDir(); err != nil {
			return out, err
		}
		defer os.RemoveAll(dir)
	}
	stats := &core.ProgressStats{}
	cfg := r.config(w, r.o.seed, dir, stats)
	root := tr.begin("rep", 0, rid)
	defer tr.end(root)

	s, err := r.sampled(tr, rid, root, prog, cfg, simCfg)
	if err != nil {
		return out, err
	}
	out.sampled = s.took
	out.digest = selectionDigest(s.sel, s.pred.Cycles)
	checkSelection(&r.tally, rid, s.sel)
	saves, _, recoveries, _, _ := stats.Snapshot()
	if w.durable {
		r.op(recoveries == 0, "%s: %d durable recoveries in a fresh progress directory", rid, recoveries)
	}
	r.logf("# %s: sampled %.3fs (analyze %.3fs), %d regions, %d looppoints, traced=%v",
		rid, s.took.Seconds(), s.analyzeTook.Seconds(), len(s.a.Profile.Regions), len(s.sel.Points), traced)
	st, took, err := r.fullSim(tr, rid, root, prog, cfg.Seed, simCfg)
	if err != nil {
		return out, err
	}
	out.full = took
	r.logf("# %s: full %.3fs, runtime error %.4f%%", rid, took.Seconds(),
		core.PercentError(s.pred.Seconds, st.RuntimeSeconds()))
	if traced {
		r.sample("timing.full_minstr_per_s", float64(st.Instructions)/1e6/took.Seconds())
	}
	if !traced {
		return out, nil
	}
	progressBytes := dirBytes(dir)
	steps, dcfgAlloc, err := r.decompose(rid, root, prog, cfg, s)
	if err != nil {
		return out, err
	}
	r.layerSamples(rid, steps, dcfgAlloc, s)
	r.sample("core.progress_saves", float64(saves))
	r.sample("core.progress_bytes", float64(progressBytes))
	return out, nil
}

// layerSampleNames are the per-layer metrics layerSamples records.
var layerSampleNames = []string{
	"pinball.record_s", "pinball.record_minstr_per_s", "dcfg.replay_s",
	"dcfg.replay_minstr_per_s", "dcfg.replay_alloc_mb", "dcfg.loops_s",
	"bbv.replay_s", "bbv.replay_minstr_per_s", "core.analyze_s",
	"core.analyze_overhead_s", "core.select_s", "pinball.extract_s",
	"core.regions_s", "timing.region_s", "timing.region_minstr_per_s",
	"core.regions_pool_eff",
}

// layerSamples derives one repetition's per-layer values from its spans
// and its sampled run.
func (r *run) layerSamples(rid string, steps, dcfgAlloc uint64, s *sampledRun) {
	sec := func(name string) float64 { return r.tr.sumIn(rid, name).Seconds() }
	minstr := float64(steps) / 1e6
	rec, dr, loops, br := sec("pinball.RecordWithOptions"), sec("dcfg.Replay"), sec("dcfg.FindLoops"), sec("bbv.Replay")
	r.sample("pinball.record_s", rec)
	r.sample("pinball.record_minstr_per_s", ratio(minstr, rec))
	r.sample("dcfg.replay_s", dr)
	r.sample("dcfg.replay_minstr_per_s", ratio(minstr, dr))
	r.sample("dcfg.replay_alloc_mb", float64(dcfgAlloc)/(1<<20))
	r.sample("dcfg.loops_s", loops)
	r.sample("bbv.replay_s", br)
	r.sample("bbv.replay_minstr_per_s", ratio(minstr, br))
	analyze := sec("core.Analyze")
	r.sample("core.analyze_s", analyze)
	r.sample("core.analyze_overhead_s", analyze-(rec+dr+loops+br))
	r.sample("core.select_s", sec("core.Select"))
	r.sample("pinball.extract_s", sec("pinball.ExtractRegions"))
	sweep := sec("core.SimulateRegionsN")
	r.sample("core.regions_s", sweep)
	var host time.Duration
	var instrs uint64
	for _, rr := range s.regions {
		host += rr.HostTime
		instrs += rr.Stats.Instructions
	}
	r.sample("timing.region_s", host.Seconds())
	r.sample("timing.region_minstr_per_s", ratio(float64(instrs)/1e6, host.Seconds()))
	r.sample("core.regions_pool_eff", ratio(host.Seconds(), float64(r.nproc)*sweep))
}

// decompose replays the repetition's analysis one layer at a time —
// record, DCFG replay, loop finding, BBV replay — then extracts the
// region pinballs, timing each call. The rebuilt profile must equal
// core.Analyze's, which is what licenses the marker glue below.
func (r *run) decompose(rid string, parent int, prog *isa.Program, cfg core.Config, s *sampledRun) (steps, dcfgAlloc uint64, err error) {
	tr := r.tr
	id := tr.begin("decompose", parent, rid)
	defer tr.end(id)
	var pb *pinball.Pinball
	if err = tr.call("pinball.RecordWithOptions", id, rid, func(int) error {
		var err error
		pb, err = pinball.RecordWithOptions(prog, cfg.Seed, exec.RunOpts{FlowWindow: cfg.FlowWindow, QuantumBias: cfg.HostBias})
		return err
	}); err != nil {
		return 0, 0, err
	}
	steps = pb.Schedule.Steps()
	db := dcfg.NewBuilder(prog, prog.NumThreads())
	alloc0 := heapAllocBytes()
	if err = tr.call("dcfg.Replay", id, rid, func(int) error {
		_, err := pb.Replay(prog, db)
		return err
	}); err != nil {
		return 0, 0, err
	}
	dcfgAlloc = heapAllocBytes() - alloc0
	g := db.Graph()
	var loops *dcfg.LoopTable
	tr.call("dcfg.FindLoops", id, rid, func(int) error {
		loops = g.FindLoops()
		return nil
	})
	markers, modulus := markerModulus(prog, cfg, pb, g, loops)
	col := bbv.NewCollector(prog, markers, cfg.SliceUnit*uint64(prog.NumThreads()))
	col.SetMarkerModulus(modulus)
	if err = tr.call("bbv.Replay", id, rid, func(int) error {
		_, err := pb.Replay(prog, col)
		return err
	}); err != nil {
		return 0, 0, err
	}
	r.op(reflect.DeepEqual(col.Finish(), s.a.Profile), "%s: layer-by-layer profile differs from core.Analyze's", rid)
	err = tr.call("pinball.ExtractRegions", id, rid, func(int) error {
		_, err := s.a.Pinball.ExtractRegions(prog, exportSpecs(s.sel))
		return err
	})
	return steps, dcfgAlloc, err
}

// markerModulus mirrors how core picks region markers from the DCFG:
// the stable loop headers, with symmetric worker-loop headers counted
// once per episode.
func markerModulus(prog *isa.Program, cfg core.Config, pb *pinball.Pinball, g *dcfg.Graph, loops *dcfg.LoopTable) ([]uint64, map[uint64]uint64) {
	threads := uint64(prog.NumThreads())
	expected := pb.Schedule.Steps()/(cfg.SliceUnit*threads) + 1
	var markers []uint64
	for _, h := range g.StableMarkers(loops, cfg.MarkerEntryBudget*expected) {
		markers = append(markers, h.Addr)
	}
	modulus := map[uint64]uint64{}
	for _, addr := range markers {
		if blk, ok := prog.BlockByAddr(addr); ok {
			if n := g.Nodes[blk.Global]; n != nil && n.Symmetric(prog.NumThreads()) {
				modulus[addr] = threads
			}
		}
	}
	return markers, modulus
}

// exportSpecs builds the region specs the way looppoint.ExportRegionPinballs
// does: each region warms up over the region before it.
func exportSpecs(sel *core.Selection) []pinball.RegionSpec {
	a := sel.Analysis
	var specs []pinball.RegionSpec
	for _, lp := range sel.Points {
		reg := lp.Region
		warm := reg.StartICount
		if reg.Index > 0 {
			warm = a.Profile.Regions[reg.Index-1].StartICount
		}
		specs = append(specs, pinball.RegionSpec{
			Name:            fmt.Sprintf("%s.r%d", a.Prog.Name, reg.Index),
			WarmupStartStep: warm,
			StartStep:       reg.StartICount,
			EndStep:         reg.EndICount,
			Start:           reg.Start,
			End:             reg.End,
		})
	}
	return specs
}

// dirBytes returns the bytes stored under dir ("" or missing: 0).
func dirBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
