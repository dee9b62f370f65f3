package core

import (
	"context"
	"fmt"
	"time"

	"looppoint/internal/isa"
	"looppoint/internal/pool"
	"looppoint/internal/timing"
)

// Speedups captures the paper's four speedup definitions (Section V-B).
type Speedups struct {
	// Theoretical: reduction in filtered instructions to simulate in
	// detail; serial sums all looppoints, parallel is bounded by the
	// largest one.
	TheoreticalSerial   float64
	TheoreticalParallel float64
	// Actual: reduction in measured simulation (host) time.
	ActualSerial   float64
	ActualParallel float64
}

// ComputeTheoretical derives instruction-count speedups from a selection.
func ComputeTheoretical(sel *Selection) Speedups {
	total := float64(sel.Analysis.Profile.TotalFiltered)
	var sum, max float64
	for _, lp := range sel.Points {
		f := float64(lp.Region.Filtered)
		sum += f
		if f > max {
			max = f
		}
	}
	var s Speedups
	if sum > 0 {
		s.TheoreticalSerial = total / sum
	}
	if max > 0 {
		s.TheoreticalParallel = total / max
	}
	return s
}

// AddActual fills in measured-time speedups given the full-simulation
// host time and the per-region host times.
func (s *Speedups) AddActual(fullTime time.Duration, regions []RegionResult) {
	var sum, max time.Duration
	for _, r := range regions {
		sum += r.HostTime
		if r.HostTime > max {
			max = r.HostTime
		}
	}
	if sum > 0 {
		s.ActualSerial = float64(fullTime) / float64(sum)
	}
	if max > 0 {
		s.ActualParallel = float64(fullTime) / float64(max)
	}
}

// Report is the complete outcome of an end-to-end LoopPoint evaluation of
// one application: selection, region simulations, extrapolation, and —
// when the full run was simulated — prediction errors.
type Report struct {
	Name      string
	Selection *Selection
	Regions   []RegionResult
	Predicted Prediction

	// Degradation is non-nil when the region sweep ran in degraded mode
	// and lost regions; Predicted is then the coverage-reweighted
	// estimate.
	Degradation *Degradation

	// Intervals carries per-metric confidence intervals around Predicted
	// (mean ± half-width at Intervals.Level). Nil for point-estimate
	// selection engines — only engines drawing two or more
	// representatives from some stratum make variance estimable.
	Intervals *Intervals

	Full         *timing.Stats
	FullHostTime time.Duration

	// Errors versus the full simulation (valid when Full != nil).
	RuntimeErrPct  float64
	CyclesErrPct   float64
	BranchMPKIDiff float64
	L1DMPKIDiff    float64
	L2MPKIDiff     float64
	L3MPKIDiff     float64

	Speedups Speedups
}

// RunOpts controls an end-to-end run. Its fields are classified for the
// job identity like Config's (see identity.go).
type RunOpts struct {
	// SimulateFull runs the whole-application detailed simulation to
	// compute prediction errors (skipped for ref-scale inputs, where the
	// paper also only reports speedups).
	SimulateFull bool `identity:"simulation"`
	// Parallel simulates looppoints concurrently (one pool worker per
	// CPU when Width is zero).
	Parallel bool `identity:"host"`
	// Width bounds the number of concurrently simulated looppoints.
	// Zero falls back to one worker per CPU when Parallel is set and to
	// serial simulation otherwise. The prediction is identical at every
	// width; only host time changes.
	Width int `identity:"host"`
	// Degraded tolerates per-region simulation failures: failed regions
	// are dropped, recorded in Report.Degradation, and the prediction is
	// reweighted by the residual coverage.
	Degraded bool `identity:"simulation"`
	// Retries is the per-region attempt budget (<= 1: single attempt).
	Retries int `identity:"simulation"`
	// RegionTimeout bounds each region-simulation attempt (0: none).
	RegionTimeout time.Duration `identity:"simulation"`
	// MinCoverage is the degraded-mode residual-coverage floor
	// (0: DefaultMinCoverage; negative: no floor).
	MinCoverage float64 `identity:"simulation"`
}

// width resolves the effective pool width.
func (o RunOpts) width() int {
	if o.Width > 0 {
		return o.Width
	}
	if o.Parallel {
		return pool.DefaultWidth()
	}
	return 1
}

// Run performs the complete LoopPoint flow on one program: analyze,
// select, simulate the looppoints, extrapolate, and (optionally) compare
// against the full detailed simulation.
func Run(prog *isa.Program, cfg Config, simCfg timing.Config, opts RunOpts) (*Report, error) {
	return RunCtx(context.Background(), prog, cfg, simCfg, opts)
}

// RunCtx is Run under a caller context. The analysis and full-simulation
// phases are CPU-bound kernels that do not poll ctx, so cancellation is
// honored at phase boundaries and — within the region sweep — at region
// boundaries; a cancelled run returns ctx's error instead of finishing
// the remaining work.
func RunCtx(ctx context.Context, prog *isa.Program, cfg Config, simCfg timing.Config, opts RunOpts) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a, err := Analyze(prog, cfg)
	if err != nil {
		return nil, err
	}
	sel, err := Select(a)
	if err != nil {
		return nil, err
	}
	regions, deg, err := SimulateRegionsOptCtx(ctx, sel, simCfg, SimOpts{
		Width:         opts.width(),
		Degraded:      opts.Degraded,
		Attempts:      opts.Retries,
		RegionTimeout: opts.RegionTimeout,
		MinCoverage:   opts.MinCoverage,
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Name:        prog.Name,
		Selection:   sel,
		Regions:     regions,
		Degradation: deg,
		Predicted:   ExtrapolateDegraded(regions, simCfg.FreqGHz, deg),
		Intervals:   ComputeIntervals(sel, regions, simCfg.FreqGHz, sel.Analysis.Config.Confidence),
		Speedups:    ComputeTheoretical(sel),
	}
	if opts.SimulateFull {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		sim, err := timing.New(simCfg, prog)
		if err != nil {
			return nil, err
		}
		sim.Seed = cfg.Seed
		full, err := sim.SimulateFull()
		if err != nil {
			return nil, fmt.Errorf("core: full simulation of %s: %w", prog.Name, err)
		}
		rep.Full = full
		rep.FullHostTime = time.Since(start)
		rep.computeErrors()
		rep.Speedups.AddActual(rep.FullHostTime, regions)
	}
	return rep, nil
}

func (r *Report) computeErrors() {
	full := r.Full
	r.CyclesErrPct = PercentError(r.Predicted.Cycles, full.Cycles)
	r.RuntimeErrPct = PercentError(r.Predicted.Seconds, full.RuntimeSeconds())
	r.BranchMPKIDiff = absDiff(r.Predicted.BranchMPKI(), full.BranchMPKI())
	r.L1DMPKIDiff = absDiff(r.Predicted.L1DMPKI(), full.L1DMPKI())
	r.L2MPKIDiff = absDiff(r.Predicted.L2MPKI(), full.L2MPKI())
	r.L3MPKIDiff = absDiff(r.Predicted.L3MPKI(), full.L3MPKI())
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Summary renders a one-line report.
func (r *Report) Summary() string {
	s := fmt.Sprintf("%s: %d regions -> %d looppoints", r.Name,
		len(r.Selection.Analysis.Profile.Regions), len(r.Selection.Points))
	if r.Degradation.Degraded() {
		s += fmt.Sprintf(" [degraded: %s]", r.Degradation.Summary())
	}
	if r.Intervals != nil {
		s += fmt.Sprintf(", runtime %s s (%.0f%% CI)",
			r.Intervals.Seconds, r.Intervals.Level*100)
	}
	if r.Full != nil {
		s += fmt.Sprintf(", runtime err %.2f%%", r.RuntimeErrPct)
	}
	s += fmt.Sprintf(", theoretical speedup %.1fx serial / %.1fx parallel",
		r.Speedups.TheoreticalSerial, r.Speedups.TheoreticalParallel)
	return s
}
