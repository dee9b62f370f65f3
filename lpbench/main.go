// Command lpbench is the LoopPoint benchmark: it runs one workload
// through the public entry points of the analysis, selection, region
// simulation, extrapolation and serving layers, checks the outputs, and
// prints the benchmark's metrics. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans around every layer call and prints the per-layer
// metrics derived from them. See README.md for the workloads and for
// which layer metric should move which end-to-end metric.
//
// Usage (from the repository root):
//
//	bash lpbench/run.sh --workload cg-analyze --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEnd and perLayer map every metric the benchmark prints to its
// unit; BENCHMARK.json declares the same names and units (the smoke
// test holds the two in step).
var endToEnd = map[string]string{
	"setup_s":         "s",
	"sampled_s":       "s",
	"full_s":          "s",
	"runtime_err_pct": "%",
	"peak_rss_mb":     "MB",
}

var perLayer = map[string]string{
	"workloads.build_s":           "s",
	"pinball.record_s":            "s",
	"pinball.record_minstr_per_s": "Minstr/s",
	"dcfg.replay_s":               "s",
	"dcfg.replay_minstr_per_s":    "Minstr/s",
	"dcfg.replay_alloc_mb":        "MB",
	"dcfg.loops_s":                "s",
	"bbv.replay_s":                "s",
	"bbv.replay_minstr_per_s":     "Minstr/s",
	"core.analyze_s":              "s",
	"core.analyze_overhead_s":     "s",
	"core.select_s":               "s",
	"pinball.extract_s":           "s",
	"core.regions_s":              "s",
	"timing.region_s":             "s",
	"timing.region_minstr_per_s":  "Minstr/s",
	"core.regions_pool_eff":       "fraction",
	"timing.full_minstr_per_s":    "Minstr/s",
	"core.progress_saves":         "count",
	"core.progress_bytes":         "bytes",
	"serve.queue_wait_p50_ms":     "ms",
	"serve.run_p50_ms":            "ms",
	"serve.job_self_p50_ms":       "ms",
	"harness.hit_ratio":           "fraction",
	"harness.repeat_share":        "fraction",
	"runtime.gc_cpu_frac":         "fraction",
	"trace.overhead_s":            "s",
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// size "full" runs the workloads as defined; "tiny" swaps in the
	// smallest inputs (the smoke test's setting).
	size string
	out  string // directory for span files and scratch state
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark run.
type run struct {
	o     options
	nproc int
	tr    *tracer // nil unless -trace 1
	clock *hostClock
	tally
	metrics map[string]metric
	// samples collects per-repetition values; a metric is their median.
	samples map[string][]float64
	scratch string
	dirs    int
	log     io.Writer
}

// set records the final value of a metric declared in endToEnd or
// perLayer, whichever this run prints.
func (r *run) set(name string, v float64) {
	units := endToEnd
	if r.o.trace {
		units = perLayer
	}
	unit, ok := units[name]
	if !ok {
		panic("lpbench: metric " + name + " is not declared for this mode")
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// setMedian sets metric name to the median of its samples.
func (r *run) setMedian(name string) { r.set(name, median(r.samples[name])) }

// freshDir returns a new empty directory under the run's scratch area.
func (r *run) freshDir() (string, error) {
	r.dirs++
	dir := filepath.Join(r.scratch, fmt.Sprintf("d%d", r.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.log, format+"\n", args...) }

var workloadRunners = map[string]func(*run) error{}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: cg-analyze, xz-sim or imagick-durable")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: Config.Seed of the timed repetitions")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.size, "size", "full", "full, or tiny for the smoke test's smallest inputs")
	flag.StringVar(&o.out, "out", ".bench_build/lpbench", "directory for span files and scratch state")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	res, err := runBench(o, os.Stdout)
	if err != nil {
		fatalf("%v", err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lpbench: "+format+"\n", args...)
	os.Exit(2)
}

// runBench runs one workload and returns the result line. A non-nil
// error means the run could not be set up and measured nothing; failed
// checks are reported in the result instead.
func runBench(o options, log io.Writer) (*result, error) {
	runFn, ok := workloadRunners[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.size != "full" && o.size != "tiny" {
		return nil, fmt.Errorf("unknown size %q (want full or tiny)", o.size)
	}
	if o.seed == 0 {
		return nil, fmt.Errorf("seed must be positive")
	}
	r := &run{
		o: o, nproc: runtime.NumCPU(),
		metrics: map[string]metric{}, samples: map[string][]float64{}, log: log,
	}
	if o.trace {
		r.tr = newTracer()
	}
	var err error
	if r.clock, err = newHostClock(); err != nil {
		return nil, err
	}
	defer r.clock.close()
	if err = os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	if r.scratch, err = os.MkdirTemp(o.out, "scratch-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.scratch)

	host := hostInfo(r.nproc)
	hostLine, _ := json.Marshal(host)
	r.logf("# lpbench workload=%s seed=%d seconds=%g trace=%v size=%s", o.workload, o.seed, o.seconds, o.trace, o.size)
	r.logf("# host %s", hostLine)

	gc0 := gcCPU()
	if err := runFn(r); err != nil {
		return nil, err
	}
	if o.trace {
		r.set("runtime.gc_cpu_frac", gcCPU().since(gc0))
		path := filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := r.tr.write(path, map[string]any{"workload": o.workload, "seed": o.seed, "size": o.size, "host": host}); err != nil {
			return nil, err
		}
		r.logf("# spans written to %s", path)
	} else {
		r.set("peak_rss_mb", peakRSSMB())
	}

	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for name := range want {
		if _, ok := r.metrics[name]; !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", o.workload, name)
		}
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		r.logf("%-28s %14.6f %s", name, m.Value, m.Unit)
	}
	r.logf("error_rate %d/%d", r.failed, r.attempted)
	for _, f := range r.failures {
		r.logf("FAILED: %s", f)
	}
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloadRunners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hostInfo is the provenance printed with every result.
func hostInfo(nproc int) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := os.Getenv("LPBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"cpu": cpu, "nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "widths": nproc,
	}
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSample is the runtime's cumulative GC and total CPU time.
type cpuSample struct{ gc, total float64 }

func gcCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// since returns the GC share of CPU time spent after start.
func (c cpuSample) since(start cpuSample) float64 {
	return ratio(c.gc-start.gc, c.total-start.total)
}

// heapAllocBytes returns the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// window is a run's timed window. It admits another repetition only
// while the longest one so far still fits, so runs do not overrun it.
type window struct {
	start, mark, deadline time.Time
	longest               time.Duration
}

func newWindow(seconds float64) *window {
	now := time.Now()
	return &window{start: now, mark: now, deadline: now.Add(time.Duration(seconds * float64(time.Second)))}
}

// next reports whether repetition i should run; the first min always do.
func (w *window) next(i, min int) bool {
	now := time.Now()
	if i > 0 {
		w.longest = max(w.longest, now.Sub(w.mark))
	}
	w.mark = now
	return i < min || !now.Add(w.longest).After(w.deadline)
}

func (w *window) elapsed() time.Duration { return time.Since(w.start) }

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}
