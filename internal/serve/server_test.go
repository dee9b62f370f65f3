package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"looppoint/internal/faults"
)

// postJob drives the handler directly (no sockets): returns the HTTP
// status and the decoded JSON body.
func postJob(t *testing.T, s *Server, req JobRequest) (int, map[string]any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad response body %q: %v", w.Body.String(), err)
	}
	return w.Code, out
}

// okRunner completes instantly.
func okRunner(ctx context.Context, req *JobRequest) (*JobResult, error) {
	return &JobResult{ID: req.ID, Class: req.Class, App: req.App, Summary: "ok"}, nil
}

// blockingRunner blocks until released (or the job's deadline/cancel).
type blockingRunner struct {
	started chan string   // receives req.ID when a job begins running
	release chan struct{} // close (or send) to let jobs finish
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{started: make(chan string, 64), release: make(chan struct{})}
}

func (b *blockingRunner) run(ctx context.Context, req *JobRequest) (*JobResult, error) {
	b.started <- req.ID
	select {
	case <-b.release:
		return &JobResult{ID: req.ID, Class: req.Class, App: req.App, Summary: "ok"}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func startServer(t *testing.T, cfg Config, run RunFunc) *Server {
	t.Helper()
	s := New(cfg, run)
	s.Start()
	t.Cleanup(func() { s.Drain() })
	return s
}

// TestServeJobOK: the happy path end to end — admission, execution,
// server-filled timing fields, and the health endpoints.
func TestServeJobOK(t *testing.T) {
	s := startServer(t, Config{MaxInflight: 2}, okRunner)
	code, body := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "npb-cg"})
	if code != http.StatusOK {
		t.Fatalf("status %d body %v, want 200", code, body)
	}
	if body["summary"] != "ok" || body["attempts"].(float64) != 1 {
		t.Fatalf("bad result: %v", body)
	}
	if body["id"] == "" {
		t.Fatal("server did not mint a job id")
	}

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("readyz %d, want 200", w.Code)
	}
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz %d, want 200", w.Code)
	}
	st := s.Stats()
	if st.Admitted != 1 || st.Completed != 1 {
		t.Fatalf("stats admitted=%d completed=%d, want 1/1", st.Admitted, st.Completed)
	}
}

// TestServeRejectsBadRequests: malformed JSON, unknown class, missing
// app — all 400, none admitted.
func TestServeRejectsBadRequests(t *testing.T) {
	s := startServer(t, Config{MaxInflight: 1}, okRunner)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader([]byte("{nope"))))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", w.Code)
	}
	if code, _ := postJob(t, s, JobRequest{Class: "mine-bitcoin", App: "x"}); code != http.StatusBadRequest {
		t.Fatalf("unknown class: status %d, want 400", code)
	}
	if code, _ := postJob(t, s, JobRequest{Class: ClassAnalyze}); code != http.StatusBadRequest {
		t.Fatalf("missing app: status %d, want 400", code)
	}
	if st := s.Stats(); st.Admitted != 0 {
		t.Fatalf("bad requests were admitted: %+v", st)
	}
}

// TestServeRejectsUnknownInputClass: a misspelled input class is a
// 400, not a job silently run at test scale under its own cache key.
func TestServeRejectsUnknownInputClass(t *testing.T) {
	s := startServer(t, Config{MaxInflight: 1}, okRunner)
	code, body := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "npb-cg", Input: "trian"})
	if code != http.StatusBadRequest || body["outcome"] != "bad_request" {
		t.Fatalf("input trian: status %d body %v, want 400 bad_request", code, body)
	}
	if code, _ := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "npb-cg", Input: "train"}); code != http.StatusOK {
		t.Fatalf("input train: status %d, want 200", code)
	}
	if st := s.Stats(); st.Admitted != 1 {
		t.Fatalf("admitted %d jobs, want only the valid one", st.Admitted)
	}
}

// TestServeQueueFullSheds429: with one worker busy and the queue full,
// the next request is shed immediately with 429 + Retry-After instead of
// queuing unboundedly — and completes normally once load clears.
func TestServeQueueFullSheds429(t *testing.T) {
	br := newBlockingRunner()
	s := startServer(t, Config{MaxInflight: 1, QueueDepth: 1}, br.run)

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			code, _ := postJob(t, s, JobRequest{ID: fmt.Sprintf("j%d", i), Class: ClassAnalyze, App: "npb-cg"})
			results <- code
		}(i)
	}
	<-br.started // one job running; wait for the other to be queued
	waitFor(t, func() bool { return s.Stats().Queued == 1 })

	code, body := postJob(t, s, JobRequest{ID: "overload", Class: ClassAnalyze, App: "npb-cg"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d body %v, want 429", code, body)
	}
	if body["outcome"] != "shed_queue" || body["retry_after_ms"].(float64) <= 0 {
		t.Fatalf("bad shed body: %v", body)
	}

	close(br.release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("admitted job finished with %d, want 200", code)
		}
	}
	if st := s.Stats(); st.ShedQueue != 1 || st.Completed != 2 {
		t.Fatalf("stats %+v, want shed_queue=1 completed=2", st)
	}
}

// TestServeDeadlineWhileQueued: a job whose deadline expires before a
// worker picks it up answers promptly with the typed queued-phase
// timeout — it is not silently dropped and does not start doomed work.
func TestServeDeadlineWhileQueued(t *testing.T) {
	br := newBlockingRunner()
	s := startServer(t, Config{MaxInflight: 1, QueueDepth: 2}, br.run)

	first := make(chan int, 1)
	go func() {
		code, _ := postJob(t, s, JobRequest{ID: "holder", Class: ClassAnalyze, App: "npb-cg"})
		first <- code
	}()
	<-br.started

	start := time.Now()
	code, body := postJob(t, s, JobRequest{ID: "doomed", Class: ClassAnalyze, App: "npb-cg", DeadlineMS: 80})
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d body %v, want 504", code, body)
	}
	if body["outcome"] != "timeout" || body["timeout"] != true {
		t.Fatalf("bad timeout body: %v", body)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timed-out request took %v to answer", elapsed)
	}

	close(br.release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("holder finished with %d, want 200", code)
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Fatalf("stats %+v, want timeouts=1", st)
	}
}

// TestServeBreakerTripsAndRecovers: consecutive failures in one class
// trip its breaker (503 + Retry-After while open), other classes keep
// serving, and after the hold a successful probe closes it again.
func TestServeBreakerTripsAndRecovers(t *testing.T) {
	clk := newFakeClock()
	var failing atomic.Bool
	failing.Store(true)
	run := func(ctx context.Context, req *JobRequest) (*JobResult, error) {
		if req.Class == ClassSimulate && failing.Load() {
			return nil, fmt.Errorf("synthetic dependency failure")
		}
		return okRunner(ctx, req)
	}
	s := startServer(t, Config{
		MaxInflight: 2,
		Breaker:     BreakerOpts{FailureThreshold: 2, OpenFor: 10 * time.Second, Now: clk.Now},
	}, run)

	for i := 0; i < 2; i++ {
		if code, _ := postJob(t, s, JobRequest{Class: ClassSimulate, App: "npb-cg"}); code != http.StatusInternalServerError {
			t.Fatalf("failing job %d: status %d, want 500", i, code)
		}
	}
	code, body := postJob(t, s, JobRequest{Class: ClassSimulate, App: "npb-cg"})
	if code != http.StatusServiceUnavailable || body["outcome"] != "shed_breaker" {
		t.Fatalf("status %d body %v, want 503 shed_breaker", code, body)
	}
	if body["retry_after_ms"].(float64) <= 0 {
		t.Fatalf("shed_breaker without a retry hint: %v", body)
	}
	// The analyze class has its own breaker and keeps serving.
	if code, _ := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "npb-cg"}); code != http.StatusOK {
		t.Fatalf("analyze sheared by simulate's breaker: %d", code)
	}

	clk.Advance(10 * time.Second)
	failing.Store(false)
	if code, body := postJob(t, s, JobRequest{Class: ClassSimulate, App: "npb-cg"}); code != http.StatusOK {
		t.Fatalf("probe after recovery: status %d body %v, want 200", code, body)
	}
	if got := s.Breaker(ClassSimulate).State(); got != BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", got)
	}
	if got := s.Breaker(ClassSimulate).Trips(); got != 1 {
		t.Fatalf("trips %d, want 1", got)
	}
}

// TestServeRetryBudgetBoundsAmplification: client-requested retries are
// funded by the shared budget; once it is empty, jobs fail with their
// first attempt's error instead of retrying — overload cannot be
// amplified by eager clients.
func TestServeRetryBudgetBoundsAmplification(t *testing.T) {
	var mu sync.Mutex
	tries := map[string]int{}
	run := func(ctx context.Context, req *JobRequest) (*JobResult, error) {
		mu.Lock()
		tries[req.ID]++
		n := tries[req.ID]
		mu.Unlock()
		if n == 1 {
			return nil, fmt.Errorf("first attempt always fails")
		}
		return okRunner(ctx, req)
	}
	s := startServer(t, Config{
		MaxInflight: 1,
		RetryBudget: 1, RetryRatio: 1e-9, // one banked retry, no meaningful refill
		RetryBackoff: time.Millisecond, RetryMaxBackoff: 2 * time.Millisecond,
		Breaker: BreakerOpts{FailureThreshold: 100},
	}, run)

	code, body := postJob(t, s, JobRequest{ID: "funded", Class: ClassReport, App: "a", Retries: 2})
	if code != http.StatusOK || body["attempts"].(float64) != 2 {
		t.Fatalf("funded retry: status %d body %v, want 200 after 2 attempts", code, body)
	}
	code, body = postJob(t, s, JobRequest{ID: "starved", Class: ClassReport, App: "a", Retries: 2})
	if code != http.StatusInternalServerError {
		t.Fatalf("starved retry: status %d body %v, want 500 (budget empty)", code, body)
	}
	mu.Lock()
	starvedTries := tries["starved"]
	mu.Unlock()
	if starvedTries != 1 {
		t.Fatalf("starved job ran %d attempts, want 1 (budget must deny the retry)", starvedTries)
	}
	if st := s.Stats(); st.RetriesDenied < 1 {
		t.Fatalf("stats %+v, want retries_denied >= 1", st)
	}
}

// TestServeDrainJournalsUnfinished: SIGTERM-style drain stops admitting
// (readyz flips, new jobs shed), flushes queued jobs and cancels running
// ones, and checkpoints both to the pending file for resubmission.
func TestServeDrainJournalsUnfinished(t *testing.T) {
	pending := filepath.Join(t.TempDir(), "pending.jsonl")
	br := newBlockingRunner()
	s := New(Config{
		MaxInflight: 1, QueueDepth: 4,
		DrainDeadline: 300 * time.Millisecond,
		PendingPath:   pending,
	}, br.run)
	s.Start()

	results := make(chan map[string]any, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			_, body := postJob(t, s, JobRequest{ID: fmt.Sprintf("j%d", i), Class: ClassAnalyze, App: "npb-cg"})
			results <- body
		}(i)
	}
	<-br.started // one running...
	waitFor(t, func() bool { return s.Stats().Queued == 2 })

	st := s.Drain()
	if st.Clean {
		t.Fatal("drain reported clean with jobs stuck")
	}
	if st.JournaledQueued != 2 || st.JournaledRunning != 1 {
		t.Fatalf("journaled queued=%d running=%d, want 2/1", st.JournaledQueued, st.JournaledRunning)
	}

	outcomes := map[string]int{}
	for i := 0; i < 3; i++ {
		body := <-results
		outcomes[body["outcome"].(string)]++
	}
	if outcomes["drained"] != 2 || outcomes["canceled"] != 1 {
		t.Fatalf("outcomes %v, want 2 drained + 1 canceled", outcomes)
	}

	// The checkpoint is loadable and resubmittable.
	jobs, err := LoadPendingCheckpoint(pending)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("checkpoint holds %d jobs, want 3", len(jobs))
	}
	states := map[string]int{}
	for _, p := range jobs {
		states[p.State]++
		if p.Job == nil || p.Job.App != "npb-cg" {
			t.Fatalf("checkpoint entry lost its spec: %+v", p)
		}
	}
	if states["queued"] != 2 || states["running"] != 1 {
		t.Fatalf("checkpoint states %v, want 2 queued + 1 running", states)
	}

	// Draining servers refuse new work and report unready.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", w.Code)
	}
	if code, body := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "npb-cg"}); code != http.StatusServiceUnavailable || body["outcome"] != "shed_drain" {
		t.Fatalf("admission while draining: %d %v, want 503 shed_drain", code, body)
	}
}

// TestServeDrainCleanWhenIdle: draining an idle (or promptly finishing)
// server is clean — no checkpoint, workers exit.
func TestServeDrainCleanWhenIdle(t *testing.T) {
	pending := filepath.Join(t.TempDir(), "pending.jsonl")
	s := New(Config{MaxInflight: 2, PendingPath: pending, DrainDeadline: time.Second}, okRunner)
	s.Start()
	if code, _ := postJob(t, s, JobRequest{Class: ClassAnalyze, App: "npb-cg"}); code != http.StatusOK {
		t.Fatal("warmup job failed")
	}
	st := s.Drain()
	if !st.Clean || st.JournaledQueued != 0 || st.JournaledRunning != 0 || st.LeakedWorkers != 0 {
		t.Fatalf("idle drain not clean: %+v", st)
	}
	if _, err := LoadPendingCheckpoint(pending); err == nil {
		t.Fatal("clean drain wrote a pending checkpoint")
	}
}

// TestServeChaosFaultNoHangs is the deterministic chaos drill: with the
// "serve.job" site armed (transient errors, slowdowns, and worker
// panics, seed-swept in CI via FAULTS_SEED), a burst of concurrent
// requests with tight deadlines must all be answered — success, typed
// error, typed timeout, or shed — with no request hanging past its
// deadline, inflight never exceeding MaxInflight, and a clean drain
// afterwards.
func TestServeChaosFaultNoHangs(t *testing.T) {
	seed := faults.SeedFromEnv(1)
	defer faults.Enable(faults.NewPlan(seed,
		faults.Rule{Site: "serve.job", Kind: faults.Transient, Rate: 3},
		faults.Rule{Site: "serve.job", Kind: faults.Slow, Rate: 5, Delay: 10 * time.Millisecond},
		faults.Rule{Site: "serve.job", Kind: faults.Panic, Rate: 11, Count: 3},
	))()

	const (
		maxInflight = 4
		requests    = 40
		deadline    = 2 * time.Second
		slack       = 8 * time.Second // CI scheduling headroom on top of the deadline
	)
	run := func(ctx context.Context, req *JobRequest) (*JobResult, error) {
		// A sliver of deterministic work that respects cancellation.
		d := time.Duration(req.Threads%5+1) * time.Millisecond
		select {
		case <-time.After(d):
			return &JobResult{ID: req.ID, Summary: "ok"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s := New(Config{
		MaxInflight: maxInflight, QueueDepth: 8,
		DefaultDeadline: deadline,
		RetryBackoff:    time.Millisecond, RetryMaxBackoff: 5 * time.Millisecond,
		Breaker:       BreakerOpts{FailureThreshold: 4, OpenFor: 50 * time.Millisecond},
		DrainDeadline: 2 * time.Second,
	}, run)
	s.Start()

	classes := []string{ClassAnalyze, ClassSimulate, ClassReport}
	type answer struct {
		code    int
		outcome string
		elapsed time.Duration
	}
	answers := make(chan answer, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			code, body := postJob(t, s, JobRequest{
				ID: fmt.Sprintf("chaos-%d", i), Class: classes[i%len(classes)],
				App: "npb-cg", Threads: i, Retries: 1,
				DeadlineMS: deadline.Milliseconds(),
			})
			outcome, _ := body["outcome"].(string)
			if code == http.StatusOK {
				outcome = "ok"
			}
			answers <- answer{code: code, outcome: outcome, elapsed: time.Since(start)}
		}(i)
	}
	wg.Wait()
	close(answers)

	outcomes := map[string]int{}
	answered := 0
	for a := range answers {
		answered++
		outcomes[a.outcome]++
		if a.elapsed > deadline+slack {
			t.Errorf("request answered after %v — past deadline %v + slack", a.elapsed, deadline)
		}
		switch a.code {
		case http.StatusOK, http.StatusInternalServerError, http.StatusGatewayTimeout,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("unexpected status %d (outcome %s)", a.code, a.outcome)
		}
	}
	if answered != requests {
		t.Fatalf("answered %d of %d requests", answered, requests)
	}
	st := s.Stats()
	if st.HighWater > maxInflight {
		t.Fatalf("inflight high water %d exceeded max-inflight %d", st.HighWater, maxInflight)
	}
	total := st.Completed + st.Errors + st.Timeouts + st.ShedQueue + st.ShedBreaker + st.ShedDrain
	if st.Admitted > total {
		t.Fatalf("admitted %d > accounted %d: some request vanished (stats %+v)", st.Admitted, total, st)
	}
	t.Logf("seed %d outcomes: %v (high water %d, trips %v)", seed, outcomes, st.HighWater, st.Trips)

	ds := s.Drain()
	if !ds.Clean {
		t.Fatalf("post-chaos drain not clean: %+v", ds)
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
