// Package harness drives the experiments that regenerate every table and
// figure of the paper's evaluation (Section V). Each Fig*/Table*/
// ablation function returns a typed result with a Render method; the
// lpreport command and the repository's benchmarks are thin wrappers
// around these entry points.
//
// Experiments are expensive (each application evaluation records,
// profiles, clusters, simulates regions, and optionally simulates the
// full application), so the Evaluator memoizes per-application reports
// behind a singleflight layer — concurrent callers of the same key share
// one evaluation — and every experiment fans its applications out across
// a bounded worker pool (Options.Parallelism, the -j flag). Results are
// collected in application order, so rendered reports are byte-identical
// at every parallelism level; the Options.Quick flag restricts suites to
// representative subsets.
package harness

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"looppoint/internal/artifact"
	"looppoint/internal/core"
	"looppoint/internal/faults"
	"looppoint/internal/omp"
	"looppoint/internal/pool"
	"looppoint/internal/timing"
	"looppoint/internal/workloads"
)

// Options configures an experiment run.
type Options struct {
	// Quick restricts suites to a representative subset so a full report
	// finishes in minutes on a laptop; the complete suites are used when
	// false.
	Quick bool
	// Threads is the SPEC thread count (paper: 8; 657.xz_s pins its own).
	Threads int
	// SliceUnit overrides the per-thread slice size (0 = default 100 K).
	SliceUnit uint64
	// Seed drives all randomized steps.
	Seed uint64
	// Parallelism bounds how many application evaluations (and, within
	// each, region simulations) run concurrently — the -j flag. Zero
	// means one worker per CPU. Results are deterministic and
	// ordering-stable at every setting.
	Parallelism int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// InputOverride, when set, replaces every experiment's input class
	// (train, ref, C, D) with the given one — smoke-testing only; the
	// figures are defined on their paper inputs.
	InputOverride workloads.InputClass
	// Resume names a journal file (JSONL) of completed evaluations. When
	// set, reports already journaled are rehydrated instead of re-run,
	// and every new evaluation is appended — a killed campaign restarts
	// where it stopped. Corrupt journal lines are dropped, and records
	// journaled under a different evaluator configuration (slice, seed,
	// selection engine, degraded/retry knobs) are skipped with a warning rather
	// than served as this run's numbers; a journal that cannot be opened
	// is logged and ignored (the run proceeds fresh).
	Resume string
	// Degraded tolerates per-region simulation failures inside each
	// evaluation (see core.RunOpts.Degraded).
	Degraded bool
	// Retries is the per-region attempt budget (<= 1: single attempt).
	Retries int
	// RegionTimeout bounds each region-simulation attempt (0: none).
	RegionTimeout time.Duration
	// MinCoverage is the degraded-mode residual-coverage floor
	// (0: core.DefaultMinCoverage; negative: no floor).
	MinCoverage float64
	// ProgressDir, when set, makes every evaluation crash-only: analysis
	// epochs and completed region simulations checkpoint durably under
	// this directory, and a restarted evaluation of the same key resumes
	// from its last durable epoch instead of step 0 (the -progress-dir
	// flag; see core.Config.ProgressDir).
	ProgressDir string
	// ProgressEvery is the durable-epoch length in schedule steps
	// (0 = the analysis shard width; see core.Config.ProgressEvery).
	ProgressEvery uint64
	// Progress, when non-nil, receives the durable-progress counters of
	// every evaluation (shared with the serving layer's /v1/stats).
	Progress *core.ProgressStats
	// Selector names the selection engine ("" = "simpoint"; see
	// simpoint.SelectorNames) — the -selector flag.
	Selector string
	// SampleBudget caps the stratified engine's total region draws
	// (0 = the engine default of twice the cluster count).
	SampleBudget int
	// Confidence is the interval level for multi-draw engines
	// (0 = simpoint.DefaultConfidence).
	Confidence float64
}

// trainInput returns the SPEC accuracy-experiment input class.
func (o Options) trainInput() workloads.InputClass {
	if o.InputOverride != "" {
		return o.InputOverride
	}
	return workloads.InputTrain
}

// refInput returns the SPEC speedup-study input class.
func (o Options) refInput() workloads.InputClass {
	if o.InputOverride != "" {
		return o.InputOverride
	}
	return workloads.InputRef
}

// npbInput returns the NPB problem class.
func (o Options) npbInput() workloads.InputClass {
	if o.InputOverride != "" {
		return o.InputOverride
	}
	return workloads.ClassC
}

// npbLargeInput returns the larger NPB class used by Figure 1.
func (o Options) npbLargeInput() workloads.InputClass {
	if o.InputOverride != "" {
		return o.InputOverride
	}
	return workloads.ClassD
}

func (o Options) fill() Options {
	if o.Threads == 0 {
		o.Threads = 8
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Parallelism <= 0 {
		o.Parallelism = pool.DefaultWidth()
	}
	return o
}

func (o Options) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed
	if o.SliceUnit != 0 {
		cfg.SliceUnit = o.SliceUnit
	}
	// The clustering stage (projection + BIC sweep) shares the -j width;
	// selections are byte-identical at every setting.
	cfg.ClusterWorkers = o.Parallelism
	cfg.Selector = o.Selector
	cfg.SampleBudget = o.SampleBudget
	cfg.Confidence = o.Confidence
	cfg.ProgressDir = o.ProgressDir
	cfg.ProgressEvery = o.ProgressEvery
	cfg.Progress = o.Progress
	return cfg
}

// runOpts returns the end-to-end run options of one evaluation.
func (o Options) runOpts(full bool) core.RunOpts {
	return core.RunOpts{
		SimulateFull: full, Width: o.Parallelism,
		Degraded: o.Degraded, Retries: o.Retries,
		RegionTimeout: o.RegionTimeout, MinCoverage: o.MinCoverage,
	}
}

// progressKey derives the durable-progress job key for one analysis:
// stable across restarts (it hashes only the identifying strings) and
// filename-safe. Keyed on the workload identity plus the selection
// engine — not the report class — so an analyze job, a simulate job, and
// a report job over the same workload resume each other's analysis
// epochs and region journal; core's config fingerprint rejects any
// progress the key alone would conflate.
func progressKey(app string, policy omp.WaitPolicy, input workloads.InputClass, threads int, selector string) string {
	key := fmt.Sprintf("analysis/%s/%v/%s/%d/%s", app, policy, input, threads, selector)
	return fmt.Sprintf("%016x", artifact.Checksum([]byte(key)))
}

// SpecApps returns the SPEC CPU2017 workload names used by the run.
func (o Options) SpecApps() []string {
	if o.Quick {
		return []string{"603.bwaves_s.1", "638.imagick_s.1", "644.nab_s.1", "657.xz_s.2"}
	}
	var names []string
	for _, s := range workloads.SpecSuite() {
		names = append(names, s.Name)
	}
	return names
}

// NPBApps returns the NPB workload names used by the run.
func (o Options) NPBApps() []string {
	if o.Quick {
		return []string{"npb-cg", "npb-ep", "npb-is"}
	}
	var names []string
	for _, s := range workloads.NPBSuite() {
		names = append(names, s.Name)
	}
	return names
}

// Evaluator memoizes end-to-end application reports across experiments
// (Figures 5a, 7, and 8 share the same underlying runs, as in the paper).
// All entry points are safe for concurrent use: caches sit behind a
// singleflight layer, so two goroutines requesting the same key trigger
// exactly one evaluation and share its result.
type Evaluator struct {
	Opts Options

	mu         sync.Mutex
	reports    map[string]*core.Report
	apps       map[string]*workloads.App
	selections map[string]*core.Selection

	reportFlight pool.Flight[*core.Report]
	appFlight    pool.Flight[*workloads.App]
	selFlight    pool.Flight[*core.Selection]

	journal  *journal
	restored int

	logMu sync.Mutex
	evals atomic.Int64
}

// NewEvaluator creates an evaluator. When Options.Resume names a
// journal, previously completed evaluations are rehydrated into the
// report cache and new ones are appended as they finish.
func NewEvaluator(opts Options) *Evaluator {
	e := &Evaluator{
		Opts:       opts.fill(),
		reports:    make(map[string]*core.Report),
		apps:       make(map[string]*workloads.App),
		selections: make(map[string]*core.Selection),
	}
	if opts.Resume != "" {
		config := configFingerprint(e.Opts)
		restored, dropped, mismatched, err := loadJournal(opts.Resume, config)
		if err != nil {
			e.logf("resume: cannot read journal %s: %v (starting fresh)", opts.Resume, err)
		} else {
			e.reports = restored
			e.restored = len(restored)
			if dropped > 0 {
				e.logf("resume: dropped %d corrupt journal line(s) from %s", dropped, opts.Resume)
			}
			if mismatched > 0 {
				e.logf("resume: skipped %d journal record(s) in %s computed under a different configuration (slice/seed/selector/degraded/retry flags); they will be re-evaluated", mismatched, opts.Resume)
			}
			if len(restored) > 0 {
				e.logf("resume: restored %d completed evaluation(s) from %s", len(restored), opts.Resume)
			}
		}
		j, err := openJournal(opts.Resume, config)
		if err != nil {
			e.logf("resume: cannot append to journal %s: %v (journaling disabled)", opts.Resume, err)
		} else {
			e.journal = j
		}
	}
	return e
}

// Restored returns how many completed evaluations were rehydrated from
// the resume journal.
func (e *Evaluator) Restored() int { return e.restored }

// Close releases the resume journal, if any.
func (e *Evaluator) Close() error {
	if e.journal == nil {
		return nil
	}
	return e.journal.Close()
}

// Evaluations returns how many end-to-end report evaluations have
// actually executed (cache and singleflight hits do not count) — the
// observable the stampede regression test pins down.
func (e *Evaluator) Evaluations() int64 { return e.evals.Load() }

// logf emits one progress line; serialized so concurrent evaluations do
// not interleave partial lines on the shared writer.
func (e *Evaluator) logf(format string, args ...interface{}) {
	if e.Opts.Log == nil {
		return
	}
	e.logMu.Lock()
	defer e.logMu.Unlock()
	fmt.Fprintf(e.Opts.Log, format+"\n", args...)
}

// forEach runs fn over items on the evaluator's worker pool and returns
// the per-item results in input order regardless of completion order —
// the invariant that keeps reports byte-identical at every -j.
func forEach[T, R any](e *Evaluator, items []T, fn func(T) (R, error)) ([]R, error) {
	return pool.Map(context.Background(), e.Opts.Parallelism, len(items),
		func(_ context.Context, i int) (R, error) { return fn(items[i]) })
}

// BuildApp constructs (and caches) a workload instance. Concurrent
// requests for the same instance share one build.
func (e *Evaluator) BuildApp(name string, policy omp.WaitPolicy, input workloads.InputClass, threads int) (*workloads.App, error) {
	key := fmt.Sprintf("%s/%v/%s/%d", name, policy, input, threads)
	e.mu.Lock()
	app, ok := e.apps[key]
	e.mu.Unlock()
	if ok {
		return app, nil
	}
	app, err, _ := e.appFlight.Do(key, func() (*workloads.App, error) {
		e.mu.Lock()
		app, ok := e.apps[key]
		e.mu.Unlock()
		if ok {
			return app, nil
		}
		spec, ok2 := workloads.Lookup(name)
		if !ok2 {
			return nil, fmt.Errorf("harness: unknown workload %q", name)
		}
		app, err := spec.Build(workloads.BuildParams{Threads: threads, Input: input, Policy: policy})
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		e.apps[key] = app
		e.mu.Unlock()
		return app, nil
	})
	return app, err
}

// ReportKey identifies one memoized evaluation.
type ReportKey struct {
	App     string
	Policy  omp.WaitPolicy
	Input   workloads.InputClass
	Threads int
	Core    timing.CoreKind
	Full    bool
	// Selector overrides the evaluator's selection engine for this
	// evaluation ("" = Options.Selector) — the engine-comparison
	// experiment evaluates one application under several engines.
	Selector string
}

// Report runs (or returns the cached) end-to-end LoopPoint evaluation.
// Concurrent callers of the same key block on one in-flight evaluation
// instead of duplicating the record/profile/cluster/simulate run.
func (e *Evaluator) Report(k ReportKey) (*core.Report, error) {
	return e.ReportCtx(context.Background(), k)
}

// ReportCtx is Report under a caller context: cancellation or deadline
// expiry stops the evaluation at the next phase or region boundary with
// ctx's error instead of finishing the remaining work — the contract the
// serving layer's per-request deadlines rely on. Cache hits ignore ctx.
//
// Singleflight caveat: concurrent callers of the same key share the
// first caller's evaluation, so cancelling that first caller's context
// fails the shared attempt for everyone waiting on it (failures are not
// cached; a later call re-evaluates). Callers that must not be coupled
// should use distinct keys or an outer retry.
func (e *Evaluator) ReportCtx(ctx context.Context, k ReportKey) (*core.Report, error) {
	key := fmt.Sprintf("%+v", k)
	e.mu.Lock()
	rep, ok := e.reports[key]
	e.mu.Unlock()
	if ok {
		return rep, nil
	}
	rep, err, _ := e.reportFlight.Do(key, func() (*core.Report, error) {
		e.mu.Lock()
		rep, ok := e.reports[key]
		e.mu.Unlock()
		if ok {
			return rep, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Injection site "harness.report" lets the fault suite kill an
		// experiment campaign between evaluations and exercise the
		// resume journal.
		if err := faults.Check("harness.report"); err != nil {
			return nil, fmt.Errorf("harness: %s: %w", k.App, err)
		}
		e.evals.Add(1)
		app, err := e.BuildApp(k.App, k.Policy, k.Input, k.Threads)
		if err != nil {
			return nil, err
		}
		simCfg := timing.Gainestown(app.Prog.NumThreads())
		if k.Core == timing.InOrder {
			simCfg = timing.InOrderConfig(app.Prog.NumThreads())
		}
		e.logf("evaluating %s (%v, %s, %d threads, %v core, full=%v)",
			k.App, k.Policy, k.Input, app.Prog.NumThreads(), k.Core, k.Full)
		start := time.Now()
		cfg := e.Opts.config()
		if k.Selector != "" {
			cfg.Selector = k.Selector
		}
		cfg.ProgressKey = progressKey(k.App, k.Policy, k.Input, k.Threads, cfg.Selector)
		rep, err = core.RunCtx(ctx, app.Prog, cfg, simCfg, e.Opts.runOpts(k.Full))
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", k.App, err)
		}
		e.logf("evaluated %s (%v, %s) in %v",
			k.App, k.Policy, k.Input, time.Since(start).Round(time.Millisecond))
		e.mu.Lock()
		e.reports[key] = rep
		e.mu.Unlock()
		if e.journal != nil {
			if jerr := e.journal.append(key, rep); jerr != nil {
				e.logf("resume: journal append failed: %v (journaling disabled)", jerr)
			}
		}
		return rep, nil
	})
	return rep, err
}

// AnalyzeOnly runs analysis and selection without any timing simulation
// (used for the ref-input speedup studies, where full simulation is the
// very thing being avoided). Concurrent callers share one analysis.
func (e *Evaluator) AnalyzeOnly(name string, policy omp.WaitPolicy, input workloads.InputClass, threads int) (*core.Selection, *workloads.App, error) {
	return e.AnalyzeOnlyCtx(context.Background(), name, policy, input, threads)
}

// AnalyzeOnlyCtx is AnalyzeOnly under a caller context. Analysis is one
// CPU-bound phase, so cancellation is honored at phase boundaries (the
// same singleflight coupling as ReportCtx applies).
func (e *Evaluator) AnalyzeOnlyCtx(ctx context.Context, name string, policy omp.WaitPolicy, input workloads.InputClass, threads int) (*core.Selection, *workloads.App, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	app, err := e.BuildApp(name, policy, input, threads)
	if err != nil {
		return nil, nil, err
	}
	key := fmt.Sprintf("%s/%v/%s/%d", name, policy, input, threads)
	e.mu.Lock()
	sel, ok := e.selections[key]
	e.mu.Unlock()
	if ok {
		return sel, app, nil
	}
	sel, err, _ = e.selFlight.Do(key, func() (*core.Selection, error) {
		e.mu.Lock()
		sel, ok := e.selections[key]
		e.mu.Unlock()
		if ok {
			return sel, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.logf("analyzing %s (%v, %s)", name, policy, input)
		start := time.Now()
		cfg := e.Opts.config()
		cfg.ProgressKey = progressKey(name, policy, input, threads, cfg.Selector)
		a, err := core.Analyze(app.Prog, cfg)
		if err != nil {
			return nil, err
		}
		sel, err = core.Select(a)
		if err != nil {
			return nil, err
		}
		e.logf("analyzed %s (%v, %s) in %v", name, policy, input,
			time.Since(start).Round(time.Millisecond))
		e.mu.Lock()
		e.selections[key] = sel
		e.mu.Unlock()
		return sel, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return sel, app, nil
}
