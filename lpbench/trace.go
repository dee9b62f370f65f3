package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	// Rep identifies the workload repetition (or the served reference
	// jobs) the span belongs to; spans of one repetition share it.
	Rep   string        `json:"rep"`
	Start time.Duration `json:"start_ns"` // since the tracer's origin
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no guard.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent int, rep string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Rep: rep, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs fn inside a span and returns fn's error.
func (t *tracer) call(name string, parent int, rep string, fn func(id int) error) error {
	id := t.begin(name, parent, rep)
	defer t.end(id)
	return fn(id)
}

// sumIn returns the summed duration of the closed spans with this name
// in repetition rep.
func (t *tracer) sumIn(rep, name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var total time.Duration
	for _, s := range t.spans {
		if s.Rep == rep && s.Name == name && s.End > 0 {
			total += s.dur()
		}
	}
	return total
}

// selfTimes returns, for every closed span with this name, its duration
// minus its children's. It serves serve.job, whose one child is the
// evaluator call, so children never overlap.
func (t *tracer) selfTimes(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > 0 {
			children[s.Parent] += s.dur()
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.dur()-children[s.ID])
		}
	}
	return out
}

// write stores the spans as JSON lines, preceded by one header line.
func (t *tracer) write(path string, header any) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}
