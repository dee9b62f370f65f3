// Package core implements the LoopPoint methodology end to end (paper
// Section III): reproducible whole-program recording, DCFG-based loop
// identification, BBV profiling with spin-loop filtering and loop-entry
// slice boundaries, SimPoint clustering of per-thread-concatenated BBVs,
// representative (looppoint) selection with work multipliers, parallel
// region simulation with warmup, and runtime extrapolation with error
// reporting against the full-application simulation.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"looppoint/internal/bbv"
	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/pinball"
	"looppoint/internal/pool"
	"looppoint/internal/simpoint"
	"looppoint/internal/timing"
)

// Config holds the methodology knobs. Every field's identity tag names
// the pipeline stage it can change (see identity.go), which decides the
// fingerprints it enters.
type Config struct {
	// SliceUnit is the per-thread slice size in filtered instructions;
	// the global slice target is N × SliceUnit for an N-threaded program
	// (the paper uses 100 M; this repository's workloads are scaled down
	// by workloads.Scale, so the default here is 100 K).
	SliceUnit uint64 `identity:"analysis"`
	// MaxK caps the number of clusters (paper: 50).
	MaxK int `identity:"selection"`
	// Dims is the projected BBV dimensionality (paper: 100).
	Dims int `identity:"selection"`
	// Seed drives every random choice (projection, k-means, OS model).
	Seed uint64 `identity:"analysis"`
	// FlowWindow is the flow-control window (in instructions) used while
	// recording and profiling so all threads progress evenly.
	FlowWindow uint64 `identity:"analysis"`
	// MarkerEntryBudget bounds how many times a marker PC may fire per
	// slice for it to count as a stable region boundary.
	MarkerEntryBudget uint64 `identity:"analysis"`
	// Warmup selects region-simulation warmup (perfect/functional by default).
	Warmup timing.WarmupMode `identity:"simulation"`
	// WarmupRegions is how many preceding regions a checkpoint-driven
	// region simulation warms over (default 1; the paper assumes "a
	// large enough warmup region added to the representative region").
	WarmupRegions int `identity:"simulation"`
	// RegionSim selects how looppoints are simulated (checkpoint-driven
	// by default).
	RegionSim RegionSimMode `identity:"simulation"`
	// SumBBVs switches to naive summed (rather than concatenated)
	// per-thread BBVs — the ablation of Section III-B's insight.
	SumBBVs bool `identity:"selection"`
	// HostBias emulates an imbalanced host during recording (per-thread
	// scheduling-quantum multipliers). The flow-control window is what
	// keeps a biased host from skewing the profile; the flow-control
	// ablation records with bias and toggles the window.
	HostBias []int `identity:"analysis"`
	// NoSpinFilter disables synchronization-library filtering — the
	// ablation corresponding to the naive SimPoint adaptation.
	NoSpinFilter bool `identity:"analysis"`
	// VariableSlices enables phase-aligned variable-length slicing
	// (Section III-B's alternative after Lau et al.): regions may close
	// early at a worker-loop entry when the basic-block mix shifts.
	VariableSlices bool `identity:"analysis"`
	// ClusterWorkers bounds the worker pool the clustering stage fans out
	// on — the BBV projections and the k=1..MaxK BIC sweep (0 = one
	// worker per CPU, 1 = serial). Selections are byte-identical at every
	// width; only host time changes.
	ClusterWorkers int `identity:"host"`
	// AnalyzeWorkers enables the checkpoint-parallel analysis front-end:
	// the DCFG and BBV replay passes are sharded at deterministic
	// checkpoint boundaries and run on a pool of this width (<= 0 keeps
	// the serial reference path). The profile is byte-identical at every
	// width — pinned by the analyze identity suite — and any shard
	// failure degrades to a serial re-replay of the same recording.
	// VariableSlices forces the serial path.
	AnalyzeWorkers int `identity:"host"`
	// CheckpointEvery is the shard width in schedule steps for the
	// parallel analysis (0 = a deterministic default derived from the
	// recording length only, so results never depend on worker count).
	CheckpointEvery uint64 `identity:"host"`
	// ProgressDir enables durable mid-job progress (crash-only workers):
	// the analysis replays in bounded epochs and persists a checksummed
	// recovery point after each one, and region simulation journals every
	// completed region, all under this directory. A killed job restarted
	// with the same ProgressKey resumes from its last durable epoch
	// instead of step 0, byte-identically. Empty disables; VariableSlices
	// forces the non-durable reference path.
	ProgressDir string `identity:"host"`
	// ProgressEvery is the durable-progress epoch width in schedule steps
	// (0 = the parallel front-end's deterministic shard width).
	ProgressEvery uint64 `identity:"host"`
	// ProgressKey names this job's progress files. Jobs sharing a key and
	// an analysis-relevant configuration resume each other's work (the
	// serving layer derives it from the job's content address). Empty
	// derives a key from the program name.
	ProgressKey string `identity:"host"`
	// Progress, when set, receives durable-progress counters — epoch
	// saves, recoveries, steps those recoveries skipped — shared across
	// every job of a server and exposed via /v1/stats.
	Progress *ProgressStats `identity:"host"`
	// Selector names the selection engine ("simpoint" by default; see
	// simpoint.SelectorNames). "stratified" draws multiple seeded random
	// representatives per cluster with two-phase budget allocation and
	// makes per-metric confidence intervals estimable.
	Selector string `identity:"selection"`
	// SampleBudget is the total region-draw budget for multi-draw
	// engines (0 = engine default; the medoid engine ignores it).
	SampleBudget int `identity:"selection"`
	// PilotPerStratum is the stratified engine's phase-one pilot draw
	// count per cluster (0 = simpoint.DefaultPilot).
	PilotPerStratum int `identity:"selection"`
	// Confidence is the level for extrapolated confidence intervals
	// (0 = simpoint.DefaultConfidence, i.e. 95%).
	Confidence float64 `identity:"simulation"`
	// ProportionalAlloc switches the stratified engine from Neyman to
	// proportional phase-two allocation (calibration ablation).
	ProportionalAlloc bool `identity:"selection"`
}

// DefaultConfig returns the paper's parameters at this repository's scale.
func DefaultConfig() Config {
	return Config{
		SliceUnit:         100_000,
		MaxK:              simpoint.DefaultMaxK,
		Dims:              simpoint.DefaultDims,
		Seed:              42,
		FlowWindow:        4096,
		MarkerEntryBudget: 64,
		Warmup:            timing.WarmupFunctional,
		WarmupRegions:     2,
	}
}

func (c *Config) fill() {
	if c.SliceUnit == 0 {
		c.SliceUnit = 100_000
	}
	if c.MaxK == 0 {
		c.MaxK = simpoint.DefaultMaxK
	}
	if c.Dims == 0 {
		c.Dims = simpoint.DefaultDims
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.FlowWindow == 0 {
		c.FlowWindow = 4096
	}
	if c.MarkerEntryBudget == 0 {
		c.MarkerEntryBudget = 64
	}
	if c.WarmupRegions == 0 {
		c.WarmupRegions = 2
	}
	if c.Selector == "" {
		c.Selector = "simpoint"
	}
	if c.Confidence == 0 {
		c.Confidence = simpoint.DefaultConfidence
	}
}

// Analysis is the up-front, one-time application analysis (Section III-I):
// the recorded pinball, the DCFG with its loop table, the chosen marker
// set, and the sliced BBV profile.
type Analysis struct {
	Prog    *isa.Program
	Pinball *pinball.Pinball
	Graph   *dcfg.Graph
	Loops   *dcfg.LoopTable
	Markers []uint64
	Profile *bbv.Profile
	Config  Config
}

// Analyze records the program once and profiles the recording: a DCFG
// replay identifies worker loops, then a BBV replay collects sliced,
// spin-filtered vectors at loop boundaries. With Config.AnalyzeWorkers
// set, both replay passes run checkpoint-parallel over shards of the
// recording (byte-identical to serial; see analyzeParallel), degrading
// to the serial reference path if any shard fails.
func Analyze(prog *isa.Program, cfg Config) (*Analysis, error) {
	cfg.fill()
	if cfg.ProgressDir != "" && !cfg.VariableSlices {
		if a, err := analyzeDurable(prog, cfg); err == nil {
			return a, nil
		}
		// Durable progress must never wedge a job: any failure in the
		// crash-only path (unwritable directory, unrecoverable state)
		// falls back to the stateless pipeline below.
	}
	pb, err := pinball.RecordWithOptions(prog, cfg.Seed, exec.RunOpts{
		FlowWindow:  cfg.FlowWindow,
		QuantumBias: cfg.HostBias,
	})
	if err != nil {
		return nil, fmt.Errorf("core: analyze %s: %w", prog.Name, err)
	}
	if cfg.AnalyzeWorkers > 0 && !cfg.VariableSlices {
		if a, err := analyzeParallel(prog, cfg, pb); err == nil {
			return a, nil
		}
		// A shard failure (fault injection, resource trouble) is never
		// fatal: the serial reference path re-replays the same recording
		// and produces the identical analysis.
	}
	return analyzeSerial(prog, cfg, pb)
}

// sliceTargetFor returns the global filtered-instruction budget per
// slice: N × SliceUnit for an N-threaded program.
func sliceTargetFor(prog *isa.Program, cfg *Config) uint64 {
	return cfg.SliceUnit * uint64(prog.NumThreads())
}

// markersAndModulus derives the marker set and the per-marker hit-count
// moduli from the whole-run DCFG — shared verbatim by the serial and
// checkpoint-parallel analysis paths, so marker choice can never differ
// between them.
func markersAndModulus(prog *isa.Program, cfg *Config, pb *pinball.Pinball, g *dcfg.Graph, loops *dcfg.LoopTable) ([]uint64, map[uint64]uint64, error) {
	sliceTarget := sliceTargetFor(prog, cfg)
	expectedSlices := pb.Schedule.Steps()/sliceTarget + 1
	maxExecs := cfg.MarkerEntryBudget * expectedSlices
	var markers []uint64
	for _, h := range g.StableMarkers(loops, maxExecs) {
		markers = append(markers, h.Addr)
	}
	if len(markers) == 0 {
		return nil, nil, fmt.Errorf("core: %s has no loops to mark regions with", prog.Name)
	}
	// Symmetric worker-loop headers (entered once per thread per episode)
	// fire in N-hit bursts under natural scheduling; restrict their
	// boundary counts to episode leaders so (PC, count) regions stay
	// stable across interleavings (the paper's stable-region requirement).
	modulus := make(map[uint64]uint64)
	for _, addr := range markers {
		if blk, ok := prog.BlockByAddr(addr); ok {
			if n := g.Nodes[blk.Global]; n != nil && n.Symmetric(prog.NumThreads()) {
				modulus[addr] = uint64(prog.NumThreads())
			}
		}
	}
	return markers, modulus, nil
}

// newCollector builds the serial BBV collector for the chosen markers.
// It implements exec.BlockObserver, so Replay routes it to the
// block-batched tier.
func newCollector(prog *isa.Program, cfg *Config, markers []uint64, modulus map[uint64]uint64) *bbv.Collector {
	col := bbv.NewCollector(prog, markers, sliceTargetFor(prog, cfg))
	col.SetMarkerModulus(modulus)
	if cfg.NoSpinFilter {
		col.DisableSyncFilter()
	}
	if cfg.VariableSlices {
		col.SetVariableSlices(0.25, 0.5)
	}
	return col
}

// analyzeSerial is the reference analysis pipeline: two whole-run serial
// replays of the recording (DCFG, then BBV). The parallel front-end is
// pinned byte-identical to this path and degrades to it on any failure.
func analyzeSerial(prog *isa.Program, cfg Config, pb *pinball.Pinball) (*Analysis, error) {
	db := dcfg.NewBuilder(prog, prog.NumThreads())
	if _, err := pb.Replay(prog, db); err != nil {
		return nil, fmt.Errorf("core: DCFG replay of %s: %w", prog.Name, err)
	}
	g := db.Graph()
	loops := g.FindLoops()

	markers, modulus, err := markersAndModulus(prog, &cfg, pb, g, loops)
	if err != nil {
		return nil, err
	}

	col := newCollector(prog, &cfg, markers, modulus)
	if _, err := pb.Replay(prog, col); err != nil {
		return nil, fmt.Errorf("core: BBV replay of %s: %w", prog.Name, err)
	}
	prof := col.Finish()
	if len(prof.Regions) == 0 {
		return nil, fmt.Errorf("core: %s produced no regions", prog.Name)
	}
	return &Analysis{
		Prog: prog, Pinball: pb, Graph: g, Loops: loops,
		Markers: markers, Profile: prof, Config: cfg,
	}, nil
}

// LoopPoint is one selected representative region with its extrapolation
// multiplier (Equation 2).
type LoopPoint struct {
	Region      *bbv.Region
	Cluster     int
	ClusterSize int
	// Multiplier is Σ filtered counts of represented regions divided by
	// this region's filtered count — generalized for multi-draw engines
	// to W_h / (n_h · w_i), the per-draw share of the stratum's work,
	// so Σ value_i × multiplier_i stays the stratified ratio estimate.
	Multiplier float64
	// Spread is the average distance (in the projected BBV space) from
	// the cluster's members to this representative — a confidence proxy:
	// a tight cluster extrapolates reliably, a diffuse one less so.
	Spread float64
	// Draws is how many representatives the point's stratum contributed
	// (n_h; 1 under the classic pick-the-medoid rule).
	Draws int
	// Weight is the draw's share of total work; weights sum to 1 across
	// the selection.
	Weight float64
}

// Selection is the set of looppoints chosen for an application.
type Selection struct {
	Analysis *Analysis
	Result   *simpoint.Result
	// Sample is the engine-level selection: which engine drew the
	// points, the sampling strata, and the per-draw weights. It is what
	// interval estimation consumes; Result is nil for engines that
	// stratify without clustering (e.g. "timebased").
	Sample *simpoint.Selection
	Points []LoopPoint
}

// Engine names the selection engine that produced the selection
// ("simpoint" for pre-interface selections restored from journals).
func (s *Selection) Engine() string {
	if s.Sample == nil {
		return "simpoint"
	}
	return s.Sample.Engine
}

// Select projects and clusters the profile's regions, then draws
// representatives with the configured selection engine (Section III-E;
// Config.Selector). The default "simpoint" engine picks one medoid per
// cluster and is byte-identical to the pre-interface pipeline — pinned
// by the identity suite and the selections golden file.
func Select(a *Analysis) (*Selection, error) {
	cfg := a.Config
	regions := a.Profile.Regions
	var vectors [][]float64
	if cfg.SumBBVs {
		vectors = simpoint.SumProjectRegionsN(regions, a.Profile.NumBlocks, cfg.Dims, cfg.Seed, cfg.ClusterWorkers)
	} else {
		vectors = simpoint.ProjectRegionsN(regions, a.Profile.NumBlocks, cfg.Dims, cfg.Seed, cfg.ClusterWorkers)
	}
	engine := cfg.Selector
	if engine == "" {
		engine = "simpoint"
	}
	sl, err := simpoint.NewSelector(engine)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", a.Prog.Name, err)
	}
	sp, err := sl.Select(vectors, regionWeights(regions), simpoint.Options{
		MaxK: cfg.MaxK, Seed: cfg.Seed, Workers: cfg.ClusterWorkers,
	}, simpoint.SelectorOpts{
		Budget: cfg.SampleBudget, Pilot: cfg.PilotPerStratum,
		Proportional: cfg.ProportionalAlloc,
	})
	if err != nil {
		return nil, fmt.Errorf("core: selecting %s: %w", a.Prog.Name, err)
	}
	return newSelection(a, vectors, sp), nil
}

// regionWeights returns each region's work (filtered instructions), the
// weights every selection engine draws by.
func regionWeights(regions []*bbv.Region) []float64 {
	weights := make([]float64, len(regions))
	for i, r := range regions {
		weights[i] = float64(r.Filtered)
	}
	return weights
}

// newSelection turns an engine-level selection over the projected
// vectors into looppoints with their multipliers and spreads.
func newSelection(a *Analysis, vectors [][]float64, sp *simpoint.Selection) *Selection {
	regions := a.Profile.Regions
	sel := &Selection{Analysis: a, Result: sp.Result, Sample: sp}
	// Exact per-stratum work totals (uint64 sums — no float rounding).
	stratumFiltered := make([]uint64, len(sp.Strata))
	for h, st := range sp.Strata {
		for _, m := range st.Members {
			stratumFiltered[h] += regions[m].Filtered
		}
	}
	for _, dr := range sp.Regions {
		st := sp.Strata[dr.Stratum]
		rep := regions[dr.Index]
		// Multiplier W_h/(n_h·w_i): for a one-draw stratum this is the
		// classic Equation-2 multiplier, bit for bit (×1.0 is exact).
		mult := 0.0
		if rep.Filtered > 0 {
			mult = float64(stratumFiltered[dr.Stratum]) /
				(float64(st.Sampled) * float64(rep.Filtered))
		}
		// Mean member distance to this representative, accumulated in
		// ascending member order — the same add sequence the
		// pre-interface loop produced for medoid selections.
		var spread float64
		for _, m := range st.Members {
			spread += dist(vectors[m], vectors[dr.Index])
		}
		sel.Points = append(sel.Points, LoopPoint{
			Region:      rep,
			Cluster:     dr.Stratum,
			ClusterSize: st.Size(),
			Multiplier:  mult,
			Spread:      spread / float64(st.Size()),
			Draws:       st.Sampled,
			Weight:      dr.Weight,
		})
	}
	sort.Slice(sel.Points, func(i, k int) bool {
		return sel.Points[i].Region.Index < sel.Points[k].Region.Index
	})
	return sel
}

// RegionSimMode selects how looppoints are simulated.
type RegionSimMode int

// Region simulation modes.
const (
	// RegionSimCheckpoint restores each looppoint's region pinball and
	// simulates it unconstrained from the snapshot, warming over the
	// captured warmup prefix (the ELFie-style path). All checkpoints
	// are extracted in one replay sweep, so total work scales with the
	// sample size, not with sample × application length.
	RegionSimCheckpoint RegionSimMode = iota
	// RegionSimBinaryDriven re-executes the binary from the program
	// start for every region with functional warming ("perfect warmup",
	// Section III-F) — the paper's most accurate configuration, at the
	// cost of visiting the whole prefix per region.
	RegionSimBinaryDriven
)

func (m RegionSimMode) String() string {
	if m == RegionSimBinaryDriven {
		return "binary-driven"
	}
	return "checkpoint"
}

// RegionResult pairs a looppoint with its simulated statistics and the
// host time the simulation took (for actual-speedup accounting).
type RegionResult struct {
	Point    LoopPoint
	Stats    *timing.Stats
	HostTime time.Duration
}

// SimulateRegions runs a detailed simulation of every looppoint. With
// parallel true the regions are simulated concurrently (checkpoints make
// the runs independent — Section III-J) on a pool bounded at one worker
// per CPU; see SimulateRegionsN for an explicit width.
func SimulateRegions(sel *Selection, simCfg timing.Config, parallel bool) ([]RegionResult, error) {
	width := 1
	if parallel {
		width = pool.DefaultWidth()
	}
	return SimulateRegionsN(sel, simCfg, width)
}

// SimulateRegionsN simulates every looppoint on a worker pool of the
// given width (<= 0 means one worker per CPU). Each region gets its own
// simulator seeded from the analysis config, so the per-region statistics
// — and therefore the extrapolated prediction — are byte-identical at any
// width; only host time varies. The first simulation error cancels the
// remaining unstarted regions.
func SimulateRegionsN(sel *Selection, simCfg timing.Config, width int) ([]RegionResult, error) {
	return SimulateRegionsNCtx(context.Background(), sel, simCfg, width)
}

// SimulateRegionsNCtx is SimulateRegionsN under a caller context:
// cancellation or deadline expiry stops the sweep at the next region
// boundary instead of draining the remaining queue.
func SimulateRegionsNCtx(ctx context.Context, sel *Selection, simCfg timing.Config, width int) ([]RegionResult, error) {
	results, _, err := SimulateRegionsOptCtx(ctx, sel, simCfg, SimOpts{Width: width})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Prediction is the extrapolated whole-program performance (Equation 1,
// generalized to every metric of interest as Section III-G notes).
type Prediction struct {
	Cycles       float64
	Seconds      float64
	Instructions float64
	BranchMisses float64
	Branches     float64
	L1DMisses    float64
	L2Misses     float64
	L3Misses     float64
	// Stack is the extrapolated cycle decomposition (CPI stack).
	Stack timing.CPIStack
}

// BranchMPKI returns the predicted branch misses per kilo-instruction.
func (p Prediction) BranchMPKI() float64 { return fmpki(p.BranchMisses, p.Instructions) }

// L1DMPKI returns the predicted L1-D MPKI.
func (p Prediction) L1DMPKI() float64 { return fmpki(p.L1DMisses, p.Instructions) }

// L2MPKI returns the predicted L2 MPKI.
func (p Prediction) L2MPKI() float64 { return fmpki(p.L2Misses, p.Instructions) }

// L3MPKI returns the predicted L3 MPKI.
func (p Prediction) L3MPKI() float64 { return fmpki(p.L3Misses, p.Instructions) }

func fmpki(m, i float64) float64 {
	if i == 0 {
		return 0
	}
	return m / i * 1000
}

// Extrapolate reconstructs whole-program metrics from the region results:
// total = Σ_i value_i × multiplier_i.
func Extrapolate(results []RegionResult, freqGHz float64) Prediction {
	var p Prediction
	for _, r := range results {
		m := r.Point.Multiplier
		p.Cycles += r.Stats.Cycles * m
		p.Instructions += float64(r.Stats.Instructions) * m
		p.BranchMisses += float64(r.Stats.BranchMisses) * m
		p.Branches += float64(r.Stats.Branches) * m
		p.L1DMisses += float64(r.Stats.L1DMisses) * m
		p.L2Misses += float64(r.Stats.L2Misses) * m
		p.L3Misses += float64(r.Stats.L3Misses) * m
		p.Stack.Add(timing.CPIStack{
			Base:    r.Stats.Stack.Base * m,
			Ifetch:  r.Stats.Stack.Ifetch * m,
			Memory:  r.Stats.Stack.Memory * m,
			Branch:  r.Stats.Stack.Branch * m,
			Compute: r.Stats.Stack.Compute * m,
			Sync:    r.Stats.Stack.Sync * m,
		})
	}
	p.Seconds = p.Cycles / (freqGHz * 1e9)
	return p
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// PercentError returns |predicted-actual|/actual × 100.
func PercentError(predicted, actual float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 0
		}
		return 100
	}
	e := (predicted - actual) / actual * 100
	if e < 0 {
		e = -e
	}
	return e
}
