package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"looppoint/internal/harness"
	"looppoint/internal/serve"
)

// servedOutcome is what the client saw for one job.
type servedOutcome struct {
	status int
	res    serve.JobResult
	err    error
}

// serveReference boots a serve.Server over a fresh harness.Evaluator on
// loopback HTTP and posts a pipeline workload's reference job twice, one
// after the other — the second answer comes from the evaluator's memo —
// and requires both to predict the reference's cycles. It is how the
// traced runs measure the serve and harness layers: each job is a
// serve.job span whose one child is the evaluator call.
func (r *run) serveReference(w pipelineWorkload, ref *referenceRun) error {
	rid := w.name + "/served"
	ev := harness.NewEvaluator(harness.Options{Parallelism: r.nproc})
	base := serve.EvaluatorRunner(ev)
	var jobSpan atomic.Int64 // the serve.job span of the job in flight
	runner := func(ctx context.Context, req *serve.JobRequest) (*serve.JobResult, error) {
		id := r.tr.begin("harness.run", int(jobSpan.Load()), rid)
		defer r.tr.end(id)
		return base(ctx, req)
	}
	srv, hs, url, err := bootServer(serve.Config{MaxInflight: r.nproc}, runner)
	if err != nil {
		return err
	}
	client := &http.Client{}
	defer shutdown(srv, hs, client)

	req := serve.JobRequest{Class: serve.ClassSimulate, App: w.app, Input: string(w.inputFor(r.o.size)), Threads: 8}
	var wait, run []float64
	const jobs = 2
	for i := 0; i < jobs; i++ {
		req.ID = fmt.Sprintf("%s/%d", rid, i)
		id := r.tr.begin("serve.job", 0, rid)
		jobSpan.Store(int64(id))
		o := post(client, url, &req)
		r.tr.end(id)
		if !r.op(o.err == nil && o.status == http.StatusOK && o.res.PredictedCycles == ref.cycles && o.res.Points == ref.points,
			"%s job %d: status %d, %v cycles, %d points (err %v); reference %v cycles, %d points",
			rid, i, o.status, o.res.PredictedCycles, o.res.Points, o.err, ref.cycles, ref.points) {
			continue
		}
		wait = append(wait, float64(o.res.QueueWaitMS))
		run = append(run, float64(o.res.RunMS))
	}

	// JobResult gives queue wait and run time in whole milliseconds.
	r.set("serve.queue_wait_p50_ms", median(wait))
	r.set("serve.run_p50_ms", median(run))
	var self []float64
	for _, d := range r.tr.selfTimes("serve.job") {
		self = append(self, float64(d)/1e6)
	}
	r.set("serve.job_self_p50_ms", median(self))
	r.set("harness.hit_ratio", 1-ratio(float64(ev.Evaluations()), jobs))
	r.set("harness.repeat_share", float64(jobs-1)/jobs)
	return nil
}

// bootServer starts a serve.Server on an ephemeral loopback port and
// waits until /readyz answers.
func bootServer(cfg serve.Config, run serve.RunFunc) (*serve.Server, *http.Server, string, error) {
	srv := serve.New(cfg, run)
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	url := "http://" + ln.Addr().String()
	resp, err := http.Get(url + "/readyz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz answered %s", resp.Status)
		}
	}
	if err != nil {
		shutdown(srv, hs, http.DefaultClient)
		return nil, nil, "", err
	}
	return srv, hs, url, nil
}

// shutdown drains the server first, so in-flight handlers can answer,
// then closes the listener and the client's idle connections.
func shutdown(srv *serve.Server, hs *http.Server, client *http.Client) {
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
}

func post(client *http.Client, url string, req *serve.JobRequest) servedOutcome {
	body, err := json.Marshal(req)
	if err != nil {
		return servedOutcome{err: err}
	}
	resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return servedOutcome{err: err}
	}
	defer resp.Body.Close()
	out := servedOutcome{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		out.err = json.NewDecoder(resp.Body).Decode(&out.res)
	} else {
		var e map[string]any
		json.NewDecoder(resp.Body).Decode(&e)
		out.err = fmt.Errorf("status %d: %v", resp.StatusCode, e)
	}
	return out
}
