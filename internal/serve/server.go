// Package serve is the request-serving resilience layer: it turns the
// batch sampling pipeline (harness.Evaluator, core.SimulateRegions*,
// internal/pool) into a long-lived daemon that stays up under load and
// failure. The stack is the standard serving shape — admission control
// with a bounded queue and explicit load shedding (429 + Retry-After),
// a per-job-class circuit breaker (closed/open/half-open under an
// injected clock), per-request deadlines propagated as contexts through
// every layer below, a server-wide retry *budget* so client retries
// cannot amplify overload, and graceful drain on SIGTERM: stop
// admitting, finish in-flight work up to a drain deadline, and
// checkpoint whatever could not finish so an operator can resubmit it.
// DESIGN.md §11 states the invariants; cmd/lpserved is the binary.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"looppoint/internal/core"
	"looppoint/internal/faults"
	"looppoint/internal/pool"
	"looppoint/internal/workloads"
)

// Job classes. Each gets its own circuit breaker: a failing full-report
// dependency must not stop cheap analyses from serving.
const (
	ClassAnalyze  = "analyze"  // profile + cluster + select, no timing simulation
	ClassSimulate = "simulate" // full pipeline, extrapolation only
	ClassReport   = "report"   // full pipeline, honoring Full for error reporting
)

// JobClasses lists every class the server admits.
var JobClasses = []string{ClassAnalyze, ClassSimulate, ClassReport}

// Serving defaults.
const (
	DefaultQueueDepthFactor = 2                // queue depth = factor × max-inflight
	DefaultDeadline         = 2 * time.Minute  // per-request deadline when the client sets none
	DefaultMaxDeadline      = 10 * time.Minute // cap on client-requested deadlines
	DefaultDrainDeadline    = 30 * time.Second // SIGTERM → forced-checkpoint bound
	DefaultMaxRetries       = 3                // cap on client-requested extra attempts
	DefaultRetryBackoff     = 25 * time.Millisecond
	DefaultRetryMaxBackoff  = 2 * time.Second
)

// ErrDraining rejects work because the server is shutting down.
var ErrDraining = errors.New("serve: draining, not admitting jobs")

// TimeoutError is the typed deadline failure: the job did not finish
// within its per-request deadline, either because it never left the
// queue ("queued") or because the work itself ran long ("running").
type TimeoutError struct {
	Phase    string
	Deadline time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("serve: job deadline %v exceeded while %s", e.Deadline, e.Phase)
}

// JobRequest is the JSON body of POST /v1/jobs.
type JobRequest struct {
	// ID is the client's correlation id (a server id is minted if empty).
	ID string `json:"id,omitempty"`
	// Class selects the pipeline: analyze, simulate, or report.
	Class string `json:"class"`
	// App names the workload (e.g. "603.bwaves_s.1", "npb-cg").
	App string `json:"app"`
	// Input is the input class (train, ref, test, C, D…); empty uses the
	// evaluator's default for the class.
	Input string `json:"input,omitempty"`
	// Threads is the thread count (0: the evaluator's default).
	Threads int `json:"threads,omitempty"`
	// Policy is the OMP wait policy: "passive" (default) or "active".
	Policy string `json:"policy,omitempty"`
	// Core selects the core model: "ooo" (default) or "inorder".
	Core string `json:"core,omitempty"`
	// Full additionally runs the whole-program simulation for error
	// reporting (report class only).
	Full bool `json:"full,omitempty"`
	// DeadlineMS is the client's deadline for the whole request,
	// including queue wait (0: server default; capped at the server max).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Retries is how many extra attempts the client wants on failure.
	// The server clamps it (MaxRetries) and charges each retry to the
	// shared retry budget, so retries never amplify an overload.
	Retries int `json:"retries,omitempty"`
}

// JobResult is the success payload of POST /v1/jobs.
type JobResult struct {
	ID      string `json:"id"`
	Class   string `json:"class"`
	App     string `json:"app"`
	Summary string `json:"summary"`

	Regions int `json:"regions"`
	Points  int `json:"points"`

	PredictedSeconds float64 `json:"predicted_seconds,omitempty"`
	PredictedCycles  float64 `json:"predicted_cycles,omitempty"`
	RuntimeErrPct    float64 `json:"runtime_err_pct,omitempty"`

	Degraded         bool    `json:"degraded,omitempty"`
	ResidualCoverage float64 `json:"residual_coverage,omitempty"`

	// Filled by the server.
	QueueWaitMS int64 `json:"queue_wait_ms"`
	RunMS       int64 `json:"run_ms"`
	Attempts    int   `json:"attempts"`
}

// RunFunc executes one admitted job under its deadline context.
type RunFunc func(ctx context.Context, req *JobRequest) (*JobResult, error)

// Config tunes the server. Zero values take the defaults above.
type Config struct {
	// MaxInflight bounds concurrently running jobs (0: one per CPU).
	MaxInflight int
	// QueueDepth bounds admitted-but-waiting jobs; beyond it requests are
	// shed with 429 (0: DefaultQueueDepthFactor × MaxInflight).
	QueueDepth int
	// DefaultDeadline applies when the client sets none.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines.
	MaxDeadline time.Duration
	// DrainDeadline bounds Drain: in-flight work past it is cancelled and
	// checkpointed instead of awaited forever.
	DrainDeadline time.Duration
	// MaxRetries caps per-job client-requested extra attempts.
	MaxRetries int
	// RetryBudget / RetryRatio configure the shared retry token bucket
	// (see Budget). RetryBudget < 0 disables retries outright.
	RetryBudget float64
	RetryRatio  float64
	// RetryBackoff / RetryMaxBackoff shape the jittered backoff between
	// job attempts.
	RetryBackoff    time.Duration
	RetryMaxBackoff time.Duration
	// Breaker configures every class's circuit breaker (each class gets
	// its own instance).
	Breaker BreakerOpts
	// PendingPath, when set, receives the JSONL checkpoint of jobs that
	// could not drain (see Drain).
	PendingPath string
	// Progress, when set, is the shared durable-progress counter sink the
	// evaluations below report into (core.Config.Progress). The server
	// only reads it: /v1/stats exposes the totals and each job's log line
	// carries the deltas observed while that job ran.
	Progress *core.ProgressStats
	// Log receives the structured per-request lines (nil: discard).
	Log io.Writer
	// Now is the injected clock for queue-wait/run-time measurement
	// (nil: time.Now). The breaker clock is Breaker.Now.
	Now func() time.Time
}

func (c Config) fill() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = pool.DefaultWidth()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepthFactor * c.MaxInflight
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = DefaultDeadline
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = DefaultMaxDeadline
	}
	if c.DrainDeadline <= 0 {
		c.DrainDeadline = DefaultDrainDeadline
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = DefaultRetryBudget
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = DefaultRetryBackoff
	}
	if c.RetryMaxBackoff <= 0 {
		c.RetryMaxBackoff = DefaultRetryMaxBackoff
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// jobDone carries one job's terminal state from worker to handler.
type jobDone struct {
	res      *JobResult
	err      error
	attempts int
	wait     time.Duration
	run      time.Duration
	// prog is the pre-rendered durable-progress delta observed while this
	// job ran (empty without Config.Progress), appended to the log line.
	prog string
}

// job is one admitted request in flight through the queue.
type job struct {
	id       uint64
	req      *JobRequest
	ctx      context.Context
	cancel   context.CancelFunc
	deadline time.Duration
	breaker  *Breaker
	enq      time.Time
	started  atomic.Bool
	done     chan jobDone // buffered 1: the worker never blocks on a gone handler
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	Admitted    uint64 `json:"admitted"`
	Batches     uint64 `json:"batches"`
	Claims      uint64 `json:"claims"`
	ClaimDedups uint64 `json:"claim_dedups"`
	Completed   uint64 `json:"completed"`
	Errors      uint64 `json:"errors"`
	Timeouts    uint64 `json:"timeouts"`
	ShedQueue   uint64 `json:"shed_queue"`
	ShedBreaker uint64 `json:"shed_breaker"`
	ShedDrain   uint64 `json:"shed_drain"`
	Journaled   uint64 `json:"journaled"`
	Resubmitted uint64 `json:"resubmitted"`

	// Durable-progress counters (zero unless Config.Progress is set):
	// epoch/region saves, failed saves, successful crash recoveries, the
	// schedule steps those recoveries skipped re-executing, and
	// recovery-ladder falls (progress files rejected as torn/corrupt).
	ProgressSaves        uint64 `json:"progress_saves"`
	ProgressSaveFailures uint64 `json:"progress_save_failures"`
	Recoveries           uint64 `json:"recoveries"`
	RecoveryStepsSaved   uint64 `json:"recovery_steps_saved"`
	LadderFalls          uint64 `json:"ladder_falls"`

	Inflight  int64 `json:"inflight"`
	HighWater int64 `json:"high_water"`
	Queued    int   `json:"queued"`

	RetryTokens   float64 `json:"retry_tokens"`
	RetriesDenied uint64  `json:"retries_denied"`

	Draining bool                    `json:"draining"`
	Breakers map[string]BreakerState `json:"breakers"`
	Trips    map[string]uint64       `json:"breaker_trips"`
}

// DrainStats reports what Drain did.
type DrainStats struct {
	Clean             bool // every admitted job finished within the deadline
	JournaledQueued   int  // queued jobs checkpointed instead of run
	JournaledRunning  int  // running jobs cancelled and checkpointed
	LeakedWorkers     int  // workers still stuck in CPU-bound work at exit
	PendingCheckpoint string
}

// PendingJob is one line of the drain checkpoint: a job the server
// admitted but could not finish, with enough of the spec to resubmit.
type PendingJob struct {
	State string      `json:"state"` // "queued" or "running"
	Job   *JobRequest `json:"job"`
}

// Server is the resilient job-serving daemon core. Build with New,
// start the worker pool with Start, mount Handler on an http.Server,
// and call Drain exactly once on shutdown.
type Server struct {
	cfg      Config
	run      RunFunc
	budget   *Budget
	breakers map[string]*Breaker

	jobs     chan *job
	accepted sync.WaitGroup // admitted jobs not yet terminal
	workers  sync.WaitGroup
	baseCtx  context.Context
	baseStop context.CancelFunc

	draining atomic.Bool
	seq      atomic.Uint64

	activeMu sync.Mutex
	active   map[uint64]*job

	inflight  atomic.Int64
	highWater atomic.Int64

	admitted, completed, errsN, timeouts atomic.Uint64
	shedQueue, shedBreaker, shedDrain    atomic.Uint64
	journaled, batches, resubmitted      atomic.Uint64
	claims, claimDedups                  atomic.Uint64

	claimMu     sync.Mutex
	claimFlight map[string]*claimEntry

	logMu sync.Mutex
}

// New builds a server around run. Call Start before serving requests.
func New(cfg Config, run RunFunc) *Server {
	cfg = cfg.fill()
	s := &Server{
		cfg:         cfg,
		run:         run,
		budget:      NewBudget(cfg.RetryBudget, cfg.RetryRatio),
		breakers:    make(map[string]*Breaker, len(JobClasses)),
		jobs:        make(chan *job, cfg.QueueDepth),
		active:      make(map[uint64]*job),
		claimFlight: make(map[string]*claimEntry),
	}
	for _, class := range JobClasses {
		s.breakers[class] = NewBreaker(class, cfg.Breaker)
	}
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	return s
}

// Start launches the MaxInflight worker goroutines.
func (s *Server) Start() {
	for w := 0; w < s.cfg.MaxInflight; w++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for {
				select {
				case <-s.baseCtx.Done():
					return
				case j := <-s.jobs:
					s.runOne(j)
				}
			}
		}()
	}
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool { return s.draining.Load() }

// Breaker returns the given class's breaker (nil for unknown classes) —
// observability for tests and the daemon.
func (s *Server) Breaker(class string) *Breaker { return s.breakers[class] }

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Admitted:      s.admitted.Load(),
		Batches:       s.batches.Load(),
		Claims:        s.claims.Load(),
		ClaimDedups:   s.claimDedups.Load(),
		Completed:     s.completed.Load(),
		Errors:        s.errsN.Load(),
		Timeouts:      s.timeouts.Load(),
		ShedQueue:     s.shedQueue.Load(),
		ShedBreaker:   s.shedBreaker.Load(),
		ShedDrain:     s.shedDrain.Load(),
		Journaled:     s.journaled.Load(),
		Resubmitted:   s.resubmitted.Load(),
		Inflight:      s.inflight.Load(),
		HighWater:     s.highWater.Load(),
		Queued:        len(s.jobs),
		RetryTokens:   s.budget.Tokens(),
		RetriesDenied: s.budget.Denied(),
		Draining:      s.draining.Load(),
		Breakers:      make(map[string]BreakerState, len(s.breakers)),
		Trips:         make(map[string]uint64, len(s.breakers)),
	}
	for class, b := range s.breakers {
		st.Breakers[class] = b.State()
		st.Trips[class] = b.Trips()
	}
	st.ProgressSaves, st.ProgressSaveFailures, st.Recoveries,
		st.RecoveryStepsSaved, st.LadderFalls = s.cfg.Progress.Snapshot()
	return st
}

// Handler returns the HTTP API: GET /healthz (liveness + stats), GET
// /readyz (admission readiness), GET /v1/stats (the bare counter
// snapshot, for coordinators and drills), POST /v1/jobs (synchronous
// job run).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "stats": s.Stats()})
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	})
	mux.HandleFunc("/v1/jobs", s.handleJob)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/claim", s.handleClaim)
	return mux
}

// MaxBatchJobs caps the jobs in one POST /v1/batch request.
const MaxBatchJobs = 64

// BatchRequest is the JSON body of POST /v1/batch: up to MaxBatchJobs
// job specs admitted and executed as one request.
type BatchRequest struct {
	Jobs []JobRequest `json:"jobs"`
}

// BatchItem is one sub-job's result inside a BatchResponse: the same
// payloads the single-job endpoint returns, wrapped with the HTTP
// status it would have carried.
type BatchItem struct {
	ID      string     `json:"id"`
	Status  int        `json:"status"`
	Outcome string     `json:"outcome"`
	Result  *JobResult `json:"result,omitempty"`
	Error   *errorBody `json:"error,omitempty"`
}

// BatchResponse is the envelope of POST /v1/batch. The HTTP status is
// 200 whenever the batch itself was well-formed; per-sub-job dispositions
// (shed, timeout, error…) are in Results, index-aligned with the
// request's Jobs.
type BatchResponse struct {
	Results   []BatchItem `json:"results"`
	Succeeded int         `json:"succeeded"`
	Shed      int         `json:"shed"`
	Failed    int         `json:"failed"`
}

// handleBatch admits and runs a batch of jobs as one request. Each
// sub-job goes through the exact same admission dance as a single POST
// /v1/jobs — drain check, class breaker, bounded queue — so a batch is
// individually sheddable per sub-job: an open breaker or a full queue
// sheds some items while the rest run. Admitted sub-jobs execute
// concurrently (bounded by the worker pool, like any other jobs) and
// share the evaluator's memoization, so batches repeating a workload
// decode and analyze it once. Drain mid-batch finishes or journals each
// sub-job individually; the batch response reports every disposition.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var breq BatchRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&breq); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Outcome: "bad_request", Error: "bad JSON: " + err.Error()})
		return
	}
	if len(breq.Jobs) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Outcome: "bad_request", Error: "empty batch"})
		return
	}
	if len(breq.Jobs) > MaxBatchJobs {
		writeJSON(w, http.StatusBadRequest, errorBody{Outcome: "bad_request",
			Error: fmt.Sprintf("batch of %d jobs exceeds the %d-job cap", len(breq.Jobs), MaxBatchJobs)})
		return
	}
	s.batches.Add(1)

	// Admit every sub-job first (admission is fast and non-blocking), so
	// the whole batch is enqueued before any awaiting starts: sub-jobs
	// behind a wide batch overlap on the worker pool instead of
	// serializing behind their siblings' completions.
	items := make([]BatchItem, len(breq.Jobs))
	admitted := make([]*job, len(breq.Jobs))
	for i := range breq.Jobs {
		req := &breq.Jobs[i]
		if bad := s.validateJob(req); bad != nil {
			items[i] = batchItem(req.ID, *bad)
			continue
		}
		j, shed := s.admit(r.Context(), req)
		if shed != nil {
			items[i] = batchItem(req.ID, *shed)
			continue
		}
		admitted[i] = j
	}
	var wg sync.WaitGroup
	for i, j := range admitted {
		if j == nil {
			continue
		}
		wg.Add(1)
		go func(i int, j *job) {
			defer wg.Done()
			items[i] = batchItem(j.req.ID, s.awaitJob(j))
		}(i, j)
	}
	wg.Wait()

	resp := BatchResponse{Results: items}
	for _, it := range items {
		switch {
		case it.Status == http.StatusOK:
			resp.Succeeded++
		case strings.HasPrefix(it.Outcome, "shed_") || it.Outcome == "drained":
			resp.Shed++
		default:
			resp.Failed++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// batchItem wraps one sub-job's outcome for the batch envelope.
func batchItem(id string, o jobOutcome) BatchItem {
	it := BatchItem{ID: id, Status: o.status}
	if o.res != nil {
		it.Outcome = "ok"
		it.Result = o.res
		return it
	}
	eb := o.errB
	it.Outcome = eb.Outcome
	it.Error = &eb
	return it
}

// errorBody is the JSON envelope for every non-200 job response.
type errorBody struct {
	Outcome      string `json:"outcome"`
	Error        string `json:"error"`
	Timeout      bool   `json:"timeout,omitempty"`
	Journaled    bool   `json:"journaled,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	Breaker      string `json:"breaker,omitempty"`
}

// jobOutcome is one job's HTTP-renderable terminal state: a success
// payload or a typed error body plus status. The single-job handler
// writes it as the whole response; the batch handler embeds one per
// sub-job.
type jobOutcome struct {
	status int
	res    *JobResult // non-nil on success (status 200)
	errB   errorBody
}

// writeOutcome renders a jobOutcome as the whole HTTP response.
func writeOutcome(w http.ResponseWriter, o jobOutcome) {
	if o.errB.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(time.Duration(o.errB.RetryAfterMS)*time.Millisecond))
	}
	if o.res != nil {
		writeJSON(w, o.status, o.res)
		return
	}
	writeJSON(w, o.status, o.errB)
}

// validateJob rejects structurally bad job specs before admission.
func (s *Server) validateJob(req *JobRequest) *jobOutcome {
	if s.breakers[req.Class] == nil {
		return &jobOutcome{status: http.StatusBadRequest, errB: errorBody{Outcome: "bad_request",
			Error: fmt.Sprintf("unknown class %q (want one of %v)", req.Class, JobClasses)}}
	}
	if req.App == "" {
		return &jobOutcome{status: http.StatusBadRequest, errB: errorBody{Outcome: "bad_request", Error: "missing app"}}
	}
	if req.Input != "" {
		if _, err := workloads.ParseInputClass(req.Input); err != nil {
			return &jobOutcome{status: http.StatusBadRequest, errB: errorBody{Outcome: "bad_request", Error: err.Error()}}
		}
	}
	return nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req JobRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Outcome: "bad_request", Error: "bad JSON: " + err.Error()})
		return
	}
	if bad := s.validateJob(&req); bad != nil {
		writeOutcome(w, *bad)
		return
	}
	j, shed := s.admit(r.Context(), &req)
	if shed != nil {
		writeOutcome(w, *shed)
		return
	}
	writeOutcome(w, s.awaitJob(j))
}

// admit runs the admission dance for one validated job, in shed-priority
// order: drain beats breaker beats queue. On success the job is queued
// and the caller must consume it with awaitJob (which releases the
// deadline context); a non-nil jobOutcome means the job was shed and
// nothing was enqueued. The accepted.Add happens before the draining
// re-check so Drain's Wait provably covers every job that can still
// reach the queue.
func (s *Server) admit(httpCtx context.Context, req *JobRequest) (*job, *jobOutcome) {
	id := s.seq.Add(1)
	if req.ID == "" {
		req.ID = fmt.Sprintf("job-%d", id)
	}
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
		if deadline > s.cfg.MaxDeadline {
			deadline = s.cfg.MaxDeadline
		}
	}
	br := s.breakers[req.Class]

	if s.draining.Load() {
		s.shedDrain.Add(1)
		s.logLine(req, id, "shed_drain", br, 0, 0, 0, ErrDraining)
		return nil, &jobOutcome{status: http.StatusServiceUnavailable,
			errB: errorBody{Outcome: "shed_drain", Error: ErrDraining.Error()}}
	}
	if err := br.Allow(); err != nil {
		var open *BreakerOpenError
		errors.As(err, &open)
		s.shedBreaker.Add(1)
		s.logLine(req, id, "shed_breaker", br, 0, 0, 0, err)
		return nil, &jobOutcome{status: http.StatusServiceUnavailable, errB: errorBody{
			Outcome: "shed_breaker", Error: err.Error(),
			RetryAfterMS: open.RetryAfter.Milliseconds(), Breaker: open.State.String(),
		}}
	}

	ctx, cancel := context.WithTimeout(httpCtx, deadline)
	j := &job{
		id: id, req: req, ctx: ctx, cancel: cancel,
		deadline: deadline, breaker: br,
		enq:  s.cfg.Now(),
		done: make(chan jobDone, 1),
	}
	s.accepted.Add(1)
	if s.draining.Load() {
		// Raced with Drain after the first check: undo and shed.
		s.accepted.Done()
		cancel()
		br.Forget()
		s.shedDrain.Add(1)
		s.logLine(req, id, "shed_drain", br, 0, 0, 0, ErrDraining)
		return nil, &jobOutcome{status: http.StatusServiceUnavailable,
			errB: errorBody{Outcome: "shed_drain", Error: ErrDraining.Error()}}
	}
	select {
	case s.jobs <- j:
	default:
		// Queue full: shed explicitly instead of queuing unboundedly.
		s.accepted.Done()
		cancel()
		br.Forget()
		s.shedQueue.Add(1)
		retry := s.cfg.DefaultDeadline / 4
		s.logLine(req, id, "shed_queue", br, 0, 0, 0, errors.New("queue full"))
		return nil, &jobOutcome{status: http.StatusTooManyRequests, errB: errorBody{
			Outcome: "shed_queue", Error: "job queue full", RetryAfterMS: retry.Milliseconds(),
		}}
	}
	s.admitted.Add(1)
	s.budget.Deposit()
	return j, nil
}

// awaitJob blocks until an admitted job reaches a terminal state and
// classifies it. Exactly one awaitJob call must follow each successful
// admit.
func (s *Server) awaitJob(j *job) jobOutcome {
	defer j.cancel()
	br := j.breaker
	select {
	case d := <-j.done:
		return s.finishOutcome(j, d)
	case <-j.ctx.Done():
		// Deadline, drain, or client gone while the worker still owns the
		// job. A terminal state may have raced in just before the wakeup
		// (drain cancels the context it is about to answer) — prefer it.
		select {
		case d := <-j.done:
			return s.finishOutcome(j, d)
		default:
		}
		phase := "queued"
		if j.started.Load() {
			phase = "running"
		}
		wait := s.cfg.Now().Sub(j.enq)
		if errors.Is(j.ctx.Err(), context.DeadlineExceeded) {
			terr := &TimeoutError{Phase: phase, Deadline: j.deadline}
			s.timeouts.Add(1)
			br.Done(false) // a dependency answering late is a failing dependency
			s.logLine(j.req, j.id, "timeout", br, wait, 0, 0, terr)
			return jobOutcome{status: http.StatusGatewayTimeout,
				errB: errorBody{Outcome: "timeout", Error: terr.Error(), Timeout: true}}
		}
		if s.draining.Load() {
			// Drain cancelled the job; its terminal state (drained for a
			// flushed queued job, canceled for an interrupted running one)
			// arrives as soon as the worker observes the cancellation.
			// Bounded wait so a cancellation-deaf RunFunc cannot wedge the
			// handler past the drain window.
			t := time.NewTimer(s.cfg.DrainDeadline)
			defer t.Stop()
			select {
			case d := <-j.done:
				return s.finishOutcome(j, d)
			case <-t.C:
				br.Forget()
				s.logLine(j.req, j.id, "drained", br, wait, 0, 0, ErrDraining)
				return jobOutcome{status: http.StatusServiceUnavailable,
					errB: errorBody{Outcome: "drained", Error: ErrDraining.Error()}}
			}
		}
		// Client disconnected: outcome unknowable, neutral for the breaker.
		// The response body goes nowhere on a real disconnect; rendering it
		// anyway keeps the batch path (whose sub-jobs share the batch
		// request's context) uniform.
		br.Forget()
		s.logLine(j.req, j.id, "canceled", br, wait, 0, 0, j.ctx.Err())
		return jobOutcome{status: http.StatusServiceUnavailable,
			errB: errorBody{Outcome: "canceled", Error: j.ctx.Err().Error()}}
	}
}

// finishOutcome classifies a worker-delivered terminal state.
func (s *Server) finishOutcome(j *job, d jobDone) jobOutcome {
	br := j.breaker
	switch {
	case d.err == nil:
		s.completed.Add(1)
		br.Done(true)
		d.res.QueueWaitMS = d.wait.Milliseconds()
		d.res.RunMS = d.run.Milliseconds()
		d.res.Attempts = d.attempts
		s.logLineX(j.req, j.id, "ok", br, d.wait, d.run, d.attempts, nil, d.prog)
		return jobOutcome{status: http.StatusOK, res: d.res}
	case errors.Is(d.err, ErrDraining):
		// Flushed by Drain: checkpointed, not a dependency failure.
		s.shedDrain.Add(1)
		br.Forget()
		s.logLine(j.req, j.id, "drained", br, d.wait, d.run, d.attempts, d.err)
		return jobOutcome{status: http.StatusServiceUnavailable, errB: errorBody{
			Outcome: "drained", Error: d.err.Error(), Journaled: s.cfg.PendingPath != "",
		}}
	case errors.Is(d.err, context.DeadlineExceeded):
		terr := &TimeoutError{Phase: "running", Deadline: j.deadline}
		s.timeouts.Add(1)
		br.Done(false)
		s.logLine(j.req, j.id, "timeout", br, d.wait, d.run, d.attempts, terr)
		return jobOutcome{status: http.StatusGatewayTimeout,
			errB: errorBody{Outcome: "timeout", Error: terr.Error(), Timeout: true}}
	case errors.Is(d.err, context.Canceled):
		br.Forget()
		s.logLine(j.req, j.id, "canceled", br, d.wait, d.run, d.attempts, d.err)
		return jobOutcome{status: http.StatusServiceUnavailable,
			errB: errorBody{Outcome: "canceled", Error: d.err.Error()}}
	default:
		s.errsN.Add(1)
		br.Done(false)
		s.logLineX(j.req, j.id, "error", br, d.wait, d.run, d.attempts, d.err, d.prog)
		return jobOutcome{status: http.StatusInternalServerError,
			errB: errorBody{Outcome: "error", Error: d.err.Error()}}
	}
}

// runOne executes one dequeued job on the calling worker goroutine.
func (s *Server) runOne(j *job) {
	defer s.accepted.Done()
	wait := s.cfg.Now().Sub(j.enq)
	if err := j.ctx.Err(); err != nil {
		// Deadline spent in the queue; never start doomed work.
		j.done <- jobDone{err: err, wait: wait}
		return
	}
	j.started.Store(true)
	s.activeMu.Lock()
	s.active[j.id] = j
	s.activeMu.Unlock()
	cur := s.inflight.Add(1)
	for {
		hw := s.highWater.Load()
		if cur <= hw || s.highWater.CompareAndSwap(hw, cur) {
			break
		}
	}
	start := s.cfg.Now()
	var saves0, fails0, recov0, steps0 uint64
	if s.cfg.Progress != nil {
		saves0, fails0, recov0, steps0, _ = s.cfg.Progress.Snapshot()
	}
	res, err, attempts := s.executeJob(j.ctx, j.req)
	// The counters are shared across workers, so under concurrency the
	// delta attributes overlapping jobs' progress to each of them — an
	// observability aid, not an exact per-job ledger.
	prog := ""
	if s.cfg.Progress != nil {
		saves, fails, recov, steps, _ := s.cfg.Progress.Snapshot()
		prog = fmt.Sprintf(" progress_saves=%d progress_save_failures=%d recoveries=%d steps_saved=%d",
			saves-saves0, fails-fails0, recov-recov0, steps-steps0)
	}
	s.inflight.Add(-1)
	s.activeMu.Lock()
	delete(s.active, j.id)
	s.activeMu.Unlock()
	j.done <- jobDone{res: res, err: err, attempts: attempts, wait: wait, run: s.cfg.Now().Sub(start), prog: prog}
}

// executeJob runs the job with budget-limited, jitter-backed retries.
// Each attempt is panic-protected (site "serve.job" is the chaos
// injection point); a panic is a bug, reported once and never retried.
func (s *Server) executeJob(ctx context.Context, req *JobRequest) (res *JobResult, err error, attempts int) {
	maxAttempts := 1
	if req.Retries > 0 {
		extra := req.Retries
		if extra > s.cfg.MaxRetries {
			extra = s.cfg.MaxRetries
		}
		maxAttempts += extra
	}
	jopts := pool.Options{Backoff: s.cfg.RetryBackoff, MaxBackoff: s.cfg.RetryMaxBackoff}
	jitter := pool.JitterState(jopts)
	for a := 1; ; a++ {
		attempts = a
		res, err = pool.RetryValue(ctx, pool.Options{}, func(ctx context.Context) (*JobResult, error) {
			if ferr := faults.Check("serve.job"); ferr != nil {
				return nil, ferr
			}
			return s.run(ctx, req)
		})
		if err == nil || a >= maxAttempts || ctx.Err() != nil {
			return res, err, attempts
		}
		var pe *pool.PanicError
		if errors.As(err, &pe) {
			return res, err, attempts
		}
		if !s.budget.Withdraw() {
			return res, err, attempts // budget empty: the first error stands
		}
		t := time.NewTimer(pool.BackoffDelay(jopts, a, &jitter))
		select {
		case <-ctx.Done():
			t.Stop()
			return res, err, attempts
		case <-t.C:
		}
	}
}

// Drain performs graceful shutdown: stop admitting, wait for admitted
// jobs up to DrainDeadline, then cancel and checkpoint whatever is left
// (queued jobs verbatim, running jobs after cancellation) to
// PendingPath as resubmittable JSONL, and stop the workers. Completed
// evaluations were already persisted by the evaluator's own resume
// journal as they finished; the pending checkpoint covers only the work
// this process is giving up on.
func (s *Server) Drain() DrainStats {
	s.draining.Store(true)
	st := DrainStats{PendingCheckpoint: s.cfg.PendingPath}

	allDone := make(chan struct{})
	go func() {
		s.accepted.Wait()
		close(allDone)
	}()
	timer := time.NewTimer(s.cfg.DrainDeadline)
	defer timer.Stop()
	select {
	case <-allDone:
		st.Clean = true
	case <-timer.C:
	}

	var pending []PendingJob
	if !st.Clean {
		// Flush jobs still queued: they never started, so their specs
		// checkpoint verbatim.
		pending = append(pending, s.flushQueued()...)
		// Cancel jobs still running and checkpoint their specs too; give
		// them a short grace to observe cancellation at a region boundary.
		for _, j := range s.cancelActive() {
			pending = append(pending, PendingJob{State: "running", Job: j.req})
		}
		grace := time.NewTimer(s.cfg.DrainDeadline / 4)
		select {
		case <-allDone:
		case <-grace.C:
		}
		grace.Stop()
		// A racing admitter may have slipped one more job into the queue
		// between flush and cancel; sweep again so nothing is stranded.
		pending = append(pending, s.flushQueued()...)
		for _, p := range pending {
			if p.State == "queued" {
				st.JournaledQueued++
			} else {
				st.JournaledRunning++
			}
		}
	}
	if len(pending) > 0 && s.cfg.PendingPath != "" {
		if err := writePendingCheckpoint(s.cfg.PendingPath, pending); err != nil {
			s.logf("drain: pending checkpoint %s failed: %v", s.cfg.PendingPath, err)
		} else {
			s.journaled.Add(uint64(len(pending)))
		}
	}

	s.baseStop()
	workersDone := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(workersDone)
	}()
	stuck := time.NewTimer(s.cfg.DrainDeadline / 4)
	defer stuck.Stop()
	select {
	case <-workersDone:
	case <-stuck.C:
		// CPU-bound work that has not reached a cancellation point yet;
		// the process is exiting anyway, so report rather than hang.
		st.LeakedWorkers = int(s.inflight.Load())
	}
	s.logf("drain: clean=%v journaled_queued=%d journaled_running=%d leaked=%d",
		st.Clean, st.JournaledQueued, st.JournaledRunning, st.LeakedWorkers)
	return st
}

// flushQueued empties the queue, finishing each job as drained.
func (s *Server) flushQueued() []PendingJob {
	var flushed []PendingJob
	for {
		select {
		case j := <-s.jobs:
			j.cancel()
			flushed = append(flushed, PendingJob{State: "queued", Job: j.req})
			j.done <- jobDone{err: ErrDraining, wait: s.cfg.Now().Sub(j.enq)}
			s.accepted.Done()
		default:
			return flushed
		}
	}
}

// cancelActive cancels every running job and returns them.
func (s *Server) cancelActive() []*job {
	s.activeMu.Lock()
	defer s.activeMu.Unlock()
	jobs := make([]*job, 0, len(s.active))
	for _, j := range s.active {
		j.cancel()
		jobs = append(jobs, j)
	}
	return jobs
}

// writePendingCheckpoint writes the drain checkpoint crash-safely:
// temp file, fsync BEFORE the atomic rename, so a SIGKILL mid-drain
// leaves either no checkpoint or a complete one — never a torn file.
func writePendingCheckpoint(path string, pending []PendingJob) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, p := range pending {
		if err := enc.Encode(p); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadPendingCheckpoint reads a drain checkpoint back — the resubmission
// half of the drain contract.
func LoadPendingCheckpoint(path string) ([]PendingJob, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []PendingJob
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var p PendingJob
		if err := dec.Decode(&p); err != nil {
			return out, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Resubmit re-enqueues jobs recovered from a drain checkpoint — the
// boot-time half of the crash-recovery contract: lpserved loads the
// previous process's pending file, Resubmits it, and renames the file
// aside. Each job goes through the normal admission dance (drain check,
// breaker, bounded queue); jobs that fail validation or are shed count
// as rejected and are dropped — their shed outcome is already logged.
// Accepted jobs run detached: their results land in the evaluator's
// resume journal and the per-request log, not in an HTTP response.
// Call after Start.
func (s *Server) Resubmit(pending []PendingJob) (accepted, rejected int) {
	for _, p := range pending {
		job := p.Job
		if job == nil || s.validateJob(job) != nil {
			rejected++
			continue
		}
		j, shed := s.admit(context.Background(), job)
		if shed != nil {
			rejected++
			continue
		}
		accepted++
		s.resubmitted.Add(1)
		go s.awaitJob(j)
	}
	s.logf("boot: resubmitted=%d rejected=%d from drain checkpoint", accepted, rejected)
	return accepted, rejected
}

// logLine emits the structured per-request line: one line per request,
// logfmt-shaped, carrying everything an operator greps for.
func (s *Server) logLine(req *JobRequest, id uint64, outcome string, br *Breaker, wait, run time.Duration, attempts int, err error) {
	s.logLineX(req, id, outcome, br, wait, run, attempts, err, "")
}

// logLineX is logLine with extra pre-rendered logfmt fields appended —
// worker-delivered outcomes carry the job's durable-progress delta.
func (s *Server) logLineX(req *JobRequest, id uint64, outcome string, br *Breaker, wait, run time.Duration, attempts int, err error, extra string) {
	if s.cfg.Log == nil {
		return
	}
	errStr := ""
	if err != nil {
		errStr = fmt.Sprintf(" err=%q", err.Error())
	}
	s.logf("job=%d id=%q class=%s app=%s outcome=%s queue_wait=%s run=%s attempts=%d breaker=%s%s%s",
		id, req.ID, req.Class, req.App, outcome,
		wait.Round(time.Microsecond), run.Round(time.Microsecond), attempts, br.State(), extra, errStr)
}

// logf serializes writer access so concurrent requests do not interleave
// partial lines.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	fmt.Fprintf(s.cfg.Log, "ts=%s ", s.cfg.Now().UTC().Format(time.RFC3339Nano))
	fmt.Fprintf(s.cfg.Log, format+"\n", args...)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds renders a Retry-After header value, rounding up so a
// client honoring it never arrives early.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
