package harness

import (
	"context"
	"errors"
	"sync"
	"testing"

	"looppoint/internal/core"
	"looppoint/internal/omp"
)

// TestReportsDeterministicAcrossParallelism pins the central guarantee
// of the parallel evaluation engine: the same seed produces byte-
// identical rendered reports and an identical extrapolated prediction
// at every worker-pool width. Host-time-derived metrics (actual
// speedups) are excluded by construction — Fig5a and Fig9 render only
// model-derived numbers.
func TestReportsDeterministicAcrossParallelism(t *testing.T) {
	type outcome struct {
		fig5a string
		fig9  string
		pred  core.Prediction
	}
	run := func(j int) outcome {
		opts := smokeOpts()
		opts.Parallelism = j
		e := NewEvaluator(opts)
		f5, err := e.Fig5a()
		if err != nil {
			t.Fatalf("j=%d: Fig5a: %v", j, err)
		}
		f9, err := e.Fig9()
		if err != nil {
			t.Fatalf("j=%d: Fig9: %v", j, err)
		}
		rep, err := e.Report(ReportKey{
			App: "603.bwaves_s.1", Policy: omp.Active, Input: e.Opts.trainInput(),
			Threads: e.Opts.Threads, Full: true,
		})
		if err != nil {
			t.Fatalf("j=%d: Report: %v", j, err)
		}
		return outcome{fig5a: f5.Render(), fig9: f9.Render(), pred: rep.Predicted}
	}

	base := run(1)
	for _, j := range []int{4, 8} {
		got := run(j)
		if got.fig5a != base.fig5a {
			t.Errorf("Fig5a render differs between j=1 and j=%d:\n--- j=1\n%s\n--- j=%d\n%s",
				j, base.fig5a, j, got.fig5a)
		}
		if got.fig9 != base.fig9 {
			t.Errorf("Fig9 render differs between j=1 and j=%d", j)
		}
		if got.pred != base.pred {
			t.Errorf("prediction differs between j=1 and j=%d:\nj=1: %+v\nj=%d: %+v",
				j, base.pred, j, got.pred)
		}
	}
}

// TestReportSingleflightNoStampede fires many concurrent Report calls
// for one key and requires exactly one underlying evaluation: the
// singleflight layer must collapse the stampede, and every caller must
// receive the same cached report.
func TestReportSingleflightNoStampede(t *testing.T) {
	opts := smokeOpts()
	opts.Parallelism = 8
	e := NewEvaluator(opts)
	key := ReportKey{
		App: "644.nab_s.1", Policy: omp.Passive, Input: e.Opts.trainInput(),
		Threads: e.Opts.Threads, Full: true,
	}

	const callers = 16
	reps := make([]*core.Report, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			reps[i], errs[i] = e.Report(key)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if reps[i] != reps[0] {
			t.Errorf("caller %d received a different report instance", i)
		}
	}
	if n := e.Evaluations(); n != 1 {
		t.Errorf("evaluations = %d, want 1 (stampede not collapsed)", n)
	}
	// A later call must hit the cache without re-evaluating.
	if _, err := e.Report(key); err != nil {
		t.Fatal(err)
	}
	if n := e.Evaluations(); n != 1 {
		t.Errorf("evaluations after cached call = %d, want 1", n)
	}
}

// TestReportCtxCancelledFailsFast: a cancelled context fails the
// evaluation before any work (or journaling) happens, and the failure is
// not cached — a later call with a live context evaluates normally.
func TestReportCtxCancelledFailsFast(t *testing.T) {
	e := smokeEvaluator()
	k := ReportKey{App: "644.nab_s.1", Policy: omp.Passive, Input: e.Opts.trainInput(), Threads: e.Opts.Threads}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ReportCtx(ctx, k); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReportCtx err = %v, want context.Canceled", err)
	}
	if n := e.Evaluations(); n != 0 {
		t.Fatalf("%d evaluations ran under a cancelled context, want 0", n)
	}
	if _, _, err := e.AnalyzeOnlyCtx(ctx, "644.nab_s.1", omp.Passive, e.Opts.trainInput(), e.Opts.Threads); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeOnlyCtx err = %v, want context.Canceled", err)
	}
	rep, err := e.ReportCtx(context.Background(), k)
	if err != nil {
		t.Fatalf("ReportCtx after cancellation was sticky: %v", err)
	}
	if rep == nil || e.Evaluations() != 1 {
		t.Fatalf("live-context evaluation did not run (evals=%d)", e.Evaluations())
	}
}
