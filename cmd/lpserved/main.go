// Command lpserved serves the sampling pipeline as a resilient daemon:
// profiling/clustering/simulation jobs arrive as HTTP/JSON, run on the
// shared memoizing evaluator, and are protected by the internal/serve
// stack — admission control with a bounded queue and 429 load shedding,
// per-class circuit breakers, per-request deadlines, a server-wide
// retry budget, and graceful SIGTERM drain that checkpoints unfinished
// jobs for resubmission.
//
//	lpserved -quick -slice 2000            # fast smoke configuration
//	lpserved -addr 127.0.0.1:0             # ephemeral port, printed at boot
//	curl localhost:8347/readyz
//	curl -d '{"class":"analyze","app":"npb-cg","input":"test"}' localhost:8347/v1/jobs
//
// Endpoints: GET /healthz (liveness + counters + breaker states),
// GET /readyz (flips to 503 the moment drain starts), GET /v1/stats
// (bare counter snapshot, including the durable-progress and recovery
// counters), POST /v1/jobs (synchronous; the response is the job's
// result or a typed outcome). On SIGTERM/SIGINT the daemon stops
// admitting, drains in-flight work up to -drain-deadline, checkpoints
// whatever could not finish to -pending, and exits 0.
//
// Crash recovery: with -progress-dir set, analysis epochs and finished
// region simulations checkpoint durably as jobs run, and at boot the
// previous process's -pending checkpoint is resubmitted automatically —
// a kill -9 mid-job costs at most one epoch of lost work.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"looppoint/internal/core"
	"looppoint/internal/faults"
	"looppoint/internal/harness"
	"looppoint/internal/serve"
	"looppoint/internal/workloads"
)

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:8347", "listen address (port 0 picks an ephemeral port, printed at boot)")

		maxInflight = flag.Int("max-inflight", 0, "maximum concurrently running jobs (0 = one per CPU)")
		queueDepth  = flag.Int("queue-depth", 0, "admitted-but-waiting job bound; beyond it requests are shed with 429 (0 = 2×max-inflight)")
		deadline    = flag.Duration("deadline", serve.DefaultDeadline, "per-request deadline when the client sets none")
		maxDeadline = flag.Duration("max-deadline", serve.DefaultMaxDeadline, "cap on client-requested deadlines")
		drainDL     = flag.Duration("drain-deadline", serve.DefaultDrainDeadline, "SIGTERM drain bound before unfinished jobs are cancelled and checkpointed")
		pending     = flag.String("pending", "lpserved.pending.jsonl", "drain checkpoint file for jobs the daemon gave up on (empty disables); resubmitted at next boot")

		progressDir   = flag.String("progress-dir", "", "durable mid-job checkpoint directory: analysis epochs and finished region simulations persist here, and a restarted daemon resumes them instead of redoing the work (empty disables)")
		progressEvery = flag.Uint64("progress-every", 0, "durable-epoch length in schedule steps (0 = the analysis shard width)")

		retryBudget = flag.Float64("retry-budget", serve.DefaultRetryBudget, "maximum banked retry tokens (negative disables job retries)")
		retryRatio  = flag.Float64("retry-ratio", serve.DefaultRetryRatio, "retry tokens earned per admitted job")
		maxRetries  = flag.Int("max-retries", serve.DefaultMaxRetries, "cap on client-requested extra attempts per job")

		brFailures = flag.Int("breaker-failures", serve.DefaultFailureThreshold, "consecutive failures that trip a job class's circuit breaker")
		brOpen     = flag.Duration("breaker-open", serve.DefaultOpenFor, "how long a tripped breaker holds open before probing")
		brProbes   = flag.Int("breaker-probes", serve.DefaultHalfOpenProbes, "half-open probe slots (and successes required to close)")

		quick    = flag.Bool("quick", false, "use representative workload subsets")
		jobs     = flag.Int("j", 0, "worker-pool width inside each evaluation (0 = one worker per CPU)")
		slice    = flag.Uint64("slice", 0, "override the per-thread slice unit (0 = default)")
		input    = flag.String("input", "", "override every job's input class (e.g. test) — smoke runs only")
		resume   = flag.String("resume", "", "evaluator resume journal: completed evaluations persist across restarts")
		degraded = flag.Bool("degraded", false, "tolerate per-region simulation failures inside evaluations")
		retries  = flag.Int("retries", 1, "attempts per region simulation inside an evaluation")
		verbose  = flag.Bool("v", false, "log evaluator progress to stderr")
	)
	flag.Parse()
	if *input != "" {
		if _, err := workloads.ParseInputClass(*input); err != nil {
			fmt.Fprintf(os.Stderr, "lpserved: -input: %v\n", err)
			os.Exit(2)
		}
	}

	if plan, err := faults.FromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "lpserved: %v\n", err)
		os.Exit(1)
	} else if plan != nil {
		faults.Enable(plan)
	}

	progress := &core.ProgressStats{}
	opts := harness.Options{
		Quick:         *quick,
		Parallelism:   *jobs,
		SliceUnit:     *slice,
		InputOverride: workloads.InputClass(*input),
		Resume:        *resume,
		Degraded:      *degraded,
		Retries:       *retries,
		ProgressDir:   *progressDir,
		ProgressEvery: *progressEvery,
		Progress:      progress,
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	e := harness.NewEvaluator(opts)

	srv := serve.New(serve.Config{
		MaxInflight:     *maxInflight,
		QueueDepth:      *queueDepth,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		DrainDeadline:   *drainDL,
		MaxRetries:      *maxRetries,
		RetryBudget:     *retryBudget,
		RetryRatio:      *retryRatio,
		Breaker: serve.BreakerOpts{
			FailureThreshold: *brFailures,
			OpenFor:          *brOpen,
			HalfOpenProbes:   *brProbes,
		},
		PendingPath: *pending,
		Progress:    progress,
		Log:         os.Stderr,
	}, serve.EvaluatorRunner(e))
	srv.Start()

	// Boot-time crash recovery: jobs the previous process checkpointed at
	// drain (or was killed holding) are re-enqueued before the listener
	// opens, and the consumed checkpoint is renamed aside so a boot loop
	// cannot resubmit the same work twice. The evaluations themselves
	// resume from -progress-dir epochs, so re-running a killed job costs
	// at most one epoch of lost work.
	if *pending != "" {
		jobs, err := serve.LoadPendingCheckpoint(*pending)
		if err != nil && os.IsNotExist(err) {
			// No checkpoint: clean previous shutdown or first boot.
		} else {
			if err != nil {
				// Partial decode still yields the valid prefix; resubmit it.
				fmt.Fprintf(os.Stderr, "lpserved: pending checkpoint %s: %v (resubmitting the %d job(s) that decoded)\n",
					*pending, err, len(jobs))
			}
			accepted, rejected := srv.Resubmit(jobs)
			aside := *pending + ".resubmitted"
			if rerr := os.Rename(*pending, aside); rerr != nil && !os.IsNotExist(rerr) {
				fmt.Fprintf(os.Stderr, "lpserved: cannot move consumed checkpoint aside: %v\n", rerr)
			}
			fmt.Printf("lpserved: resubmitted=%d rejected=%d from %s (moved to %s)\n",
				accepted, rejected, *pending, aside)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lpserved: %v\n", err)
		os.Exit(1)
	}
	// The smoke script (and any supervisor) parses this line for the
	// bound address, so -addr :0 is usable.
	fmt.Printf("lpserved: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "lpserved: %v received, draining\n", s)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "lpserved: serve failed: %v\n", err)
		os.Exit(1)
	}

	// Drain first — handlers of in-flight jobs must still be able to
	// write their responses — then close the listener and connections.
	ds := srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	hs.Shutdown(ctx)
	cancel()
	if err := e.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "lpserved: evaluator close: %v\n", err)
	}
	fmt.Printf("lpserved: drained clean=%v journaled_queued=%d journaled_running=%d leaked_workers=%d\n",
		ds.Clean, ds.JournaledQueued, ds.JournaledRunning, ds.LeakedWorkers)
	if !ds.Clean && ds.PendingCheckpoint != "" {
		fmt.Printf("lpserved: unfinished jobs checkpointed to %s\n", ds.PendingCheckpoint)
	}
	os.Exit(0)
}
