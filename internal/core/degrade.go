package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"looppoint/internal/faults"
	"looppoint/internal/isa"
	"looppoint/internal/pinball"
	"looppoint/internal/pool"
	"looppoint/internal/timing"
)

// ErrLowCoverage reports that too much of the selection's work mass was
// lost to failed region simulations for the extrapolation to be
// trustworthy.
var ErrLowCoverage = errors.New("core: residual coverage below threshold")

// DefaultMinCoverage is the default residual-coverage floor for degraded
// simulation: losing more than 10% of the selection's extrapolation
// weight fails the run rather than silently reporting a reweighted
// estimate.
const DefaultMinCoverage = 0.9

// RegionFailure records one looppoint whose simulation failed after its
// attempt budget. Err is a string, not an error, so failures serialize
// cleanly into the harness resume journal.
type RegionFailure struct {
	// Region is the failed looppoint's region index.
	Region int `json:"region"`
	// Err is the final attempt's error text.
	Err string `json:"err"`
	// Weight is the share of the selection's extrapolation mass
	// (multiplier × filtered work) this looppoint carried.
	Weight float64 `json:"weight"`
}

// Degradation summarizes what a degraded-mode simulation lost: which
// regions failed and how much extrapolation weight survives. A nil or
// empty Degradation means the run was complete.
type Degradation struct {
	Failed []RegionFailure `json:"failed"`
	// ResidualCoverage is the surviving share of the selection's
	// extrapolation mass, in (0, 1]; 1 means nothing was lost.
	ResidualCoverage float64 `json:"residual_coverage"`
}

// Degraded reports whether any region was lost.
func (d *Degradation) Degraded() bool { return d != nil && len(d.Failed) > 0 }

// Summary renders the degradation for reports.
func (d *Degradation) Summary() string {
	if !d.Degraded() {
		return "complete"
	}
	return fmt.Sprintf("%d region(s) lost, residual coverage %.1f%%",
		len(d.Failed), d.ResidualCoverage*100)
}

// SimOpts controls a fault-tolerant region-simulation sweep.
type SimOpts struct {
	// Width bounds concurrent region simulations (<= 0: one per CPU).
	Width int
	// Degraded enables collect-what-you-can mode: a region that still
	// fails after its attempt budget is dropped and recorded instead of
	// aborting the sweep.
	Degraded bool
	// Attempts is the per-region attempt budget (<= 1: single attempt).
	Attempts int
	// RegionTimeout bounds each simulation attempt (0: none).
	RegionTimeout time.Duration
	// MinCoverage is the residual-coverage floor in degraded mode.
	// Falling below it returns ErrLowCoverage. Zero means
	// DefaultMinCoverage; a negative value disables the floor entirely
	// (any surviving coverage is accepted).
	MinCoverage float64
}

// extractCheckpoints performs the one-sweep region-pinball extraction for
// checkpoint-driven simulation (nil for binary-driven mode).
func extractCheckpoints(sel *Selection) ([]*pinball.Pinball, error) {
	a := sel.Analysis
	if a.Config.RegionSim != RegionSimCheckpoint {
		return nil, nil
	}
	warmupRegions := a.Config.WarmupRegions
	if warmupRegions <= 0 {
		warmupRegions = 1
	}
	specs := make([]pinball.RegionSpec, len(sel.Points))
	for i, lp := range sel.Points {
		r := lp.Region
		warmStart := r.StartICount
		if a.Config.Warmup == timing.WarmupFunctional {
			back := r.Index - warmupRegions
			if back < 0 {
				back = 0
			}
			warmStart = a.Profile.Regions[back].StartICount
		}
		specs[i] = pinball.RegionSpec{
			Name:            fmt.Sprintf("%s.r%d", a.Prog.Name, r.Index),
			WarmupStartStep: warmStart,
			StartStep:       r.StartICount,
			EndStep:         r.EndICount,
			Start:           r.Start,
			End:             r.End,
		}
	}
	checkpoints, err := a.Pinball.ExtractRegions(a.Prog, specs)
	if err != nil {
		return nil, fmt.Errorf("core: extracting region pinballs: %w", err)
	}
	return checkpoints, nil
}

// simulatorArena recycles timing.Simulators across the regions of one
// sweep: a worker's first region pays the allocation wave (cache
// backing arrays, predictor tables, directory maps); later regions
// clear and reuse it via timing.Simulator.Reset. The identity tests pin
// reused-simulator reports byte-identical to fresh construction, so the
// sweep's results are independent of which worker simulated which
// region at which width.
type simulatorArena struct {
	pool sync.Pool
	cfg  timing.Config
}

func (ar *simulatorArena) get(prog *isa.Program) (*timing.Simulator, error) {
	if v := ar.pool.Get(); v != nil {
		sim := v.(*timing.Simulator)
		if err := sim.Reset(prog); err == nil {
			return sim, nil
		}
		// A simulator that fails revalidation (config mutated somehow) is
		// dropped; fall through to fresh construction.
	}
	return timing.New(ar.cfg, prog)
}

func (ar *simulatorArena) put(sim *timing.Simulator) { ar.pool.Put(sim) }

// simulateOneRegion runs one looppoint's detailed simulation. Injection
// site "core.region.sim" can force transient failures, slow calls, or
// panics here — the unit of failure the degraded mode tolerates. The
// simulation kernel itself is CPU-bound and does not poll ctx; the
// entry check plus the pool's per-item claim check are what make a
// cancelled sweep stop at region boundaries.
func simulateOneRegion(ctx context.Context, sel *Selection, arena *simulatorArena, checkpoints []*pinball.Pinball, i int) (RegionResult, error) {
	if err := ctx.Err(); err != nil {
		return RegionResult{}, err
	}
	if err := faults.Check("core.region.sim"); err != nil {
		return RegionResult{}, err
	}
	a := sel.Analysis
	lp := sel.Points[i]
	start := time.Now()
	sim, err := arena.get(a.Prog)
	if err != nil {
		return RegionResult{}, err
	}
	defer arena.put(sim)
	sim.Seed = a.Config.Seed
	var st *timing.Stats
	if checkpoints != nil {
		st, err = sim.SimulateCheckpoint(checkpoints[i])
	} else {
		st, err = sim.SimulateRegion(lp.Region.Start, lp.Region.End, a.Config.Warmup)
	}
	if err != nil {
		return RegionResult{}, fmt.Errorf("core: region %d: %w", lp.Region.Index, err)
	}
	return RegionResult{Point: lp, Stats: st, HostTime: time.Since(start)}, nil
}

// SimulateRegionsOpt is the fault-tolerant region-simulation sweep. In
// strict mode (Degraded false) it behaves like SimulateRegionsN — the
// first failure (after any per-region retries) aborts the sweep — and the
// returned Degradation is nil. In degraded mode every region gets its
// attempt budget; regions that still fail are dropped, their loss is
// recorded in the returned Degradation, and the surviving results are
// returned in region order. If the surviving extrapolation mass falls
// below MinCoverage the sweep fails with ErrLowCoverage.
func SimulateRegionsOpt(sel *Selection, simCfg timing.Config, opts SimOpts) ([]RegionResult, *Degradation, error) {
	return SimulateRegionsOptCtx(context.Background(), sel, simCfg, opts)
}

// SimulateRegionsOptCtx is SimulateRegionsOpt under a caller context:
// cancellation or deadline expiry stops the sweep at the next region
// boundary instead of draining the queue, unstarted regions report
// ctx.Err(), and the aggregate error is the cancellation. The serving
// layer uses this to bound jobs by per-request deadlines.
func SimulateRegionsOptCtx(ctx context.Context, sel *Selection, simCfg timing.Config, opts SimOpts) ([]RegionResult, *Degradation, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	checkpoints, err := extractCheckpoints(sel)
	if err != nil {
		return nil, nil, err
	}
	popts := pool.Options{
		Width:       opts.Width,
		Attempts:    opts.Attempts,
		ItemTimeout: opts.RegionTimeout,
		Degraded:    opts.Degraded,
	}
	arena := &simulatorArena{cfg: simCfg}
	// With Config.ProgressDir set, completed regions journal durably and
	// a restarted sweep serves them from the journal instead of
	// re-simulating (see simprogress.go); sp is nil otherwise.
	sp := openSimProgress(sel, simCfg)
	defer sp.close()
	results, errs, err := pool.MapWith(ctx, len(sel.Points), popts,
		func(ctx context.Context, i int) (RegionResult, error) {
			if res, ok := sp.lookup(i); ok {
				return res, nil
			}
			res, err := simulateOneRegion(ctx, sel, arena, checkpoints, i)
			if err == nil {
				sp.record(i, res)
			}
			return res, err
		})
	if err != nil {
		return nil, nil, err
	}
	if !opts.Degraded {
		return results, nil, nil
	}

	// Weigh each looppoint by its share of the selection's extrapolation
	// mass (multiplier × filtered work), so coverage reflects how much of
	// the whole-program estimate each loss removes.
	var totalMass float64
	for _, lp := range sel.Points {
		totalMass += lp.Multiplier * float64(lp.Region.Filtered)
	}
	deg := &Degradation{ResidualCoverage: 1}
	var survivors []RegionResult
	for i, lp := range sel.Points {
		if errs[i] == nil {
			survivors = append(survivors, results[i])
			continue
		}
		w := 0.0
		if totalMass > 0 {
			w = lp.Multiplier * float64(lp.Region.Filtered) / totalMass
		}
		deg.Failed = append(deg.Failed, RegionFailure{
			Region: lp.Region.Index,
			Err:    errs[i].Error(),
			Weight: w,
		})
		deg.ResidualCoverage -= w
	}
	if !deg.Degraded() {
		return survivors, nil, nil
	}
	minCov := opts.MinCoverage
	switch {
	case minCov == 0:
		minCov = DefaultMinCoverage
	case minCov < 0:
		minCov = 0 // explicit "no floor": accept any surviving coverage
	}
	if deg.ResidualCoverage < minCov {
		return survivors, deg, fmt.Errorf(
			"core: %d of %d regions failed, residual coverage %.1f%% < %.1f%%: %w",
			len(deg.Failed), len(sel.Points), deg.ResidualCoverage*100, minCov*100, ErrLowCoverage)
	}
	return survivors, deg, nil
}

// ExtrapolateDegraded reconstructs whole-program metrics from an
// incomplete region sweep: the surviving extrapolation is scaled by
// 1/ResidualCoverage, treating the lost regions as behaving like the
// weighted average of the survivors. With no degradation it is exactly
// Extrapolate.
func ExtrapolateDegraded(results []RegionResult, freqGHz float64, deg *Degradation) Prediction {
	p := Extrapolate(results, freqGHz)
	if !deg.Degraded() || deg.ResidualCoverage <= 0 {
		return p
	}
	s := 1 / deg.ResidualCoverage
	p.Cycles *= s
	p.Instructions *= s
	p.BranchMisses *= s
	p.Branches *= s
	p.L1DMisses *= s
	p.L2Misses *= s
	p.L3Misses *= s
	p.Stack.Base *= s
	p.Stack.Ifetch *= s
	p.Stack.Memory *= s
	p.Stack.Branch *= s
	p.Stack.Compute *= s
	p.Stack.Sync *= s
	p.Seconds = p.Cycles / (freqGHz * 1e9)
	return p
}
