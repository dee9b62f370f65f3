package harness

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"looppoint/internal/faults"
	"looppoint/internal/omp"
)

func resumeKeys(e *Evaluator) []ReportKey {
	return []ReportKey{
		{App: "603.bwaves_s.1", Policy: omp.Active, Input: e.Opts.trainInput(),
			Threads: e.Opts.Threads, Full: true},
		{App: "644.nab_s.1", Policy: omp.Passive, Input: e.Opts.trainInput(),
			Threads: e.Opts.Threads, Full: true},
	}
}

// TestResumeJournalSkipsCompletedWork kills a campaign between
// evaluations with an injected fault, restarts it against the same
// journal, and requires (a) the journaled report is rehydrated without
// re-evaluating and (b) the resumed reports match an uninterrupted run
// byte-for-byte.
func TestResumeJournalSkipsCompletedWork(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")

	// Uninterrupted reference run (no journal, no faults).
	ref := NewEvaluator(smokeOpts())
	refKeys := resumeKeys(ref)
	refSums := make([]string, len(refKeys))
	for i, k := range refKeys {
		rep, err := ref.Report(k)
		if err != nil {
			t.Fatal(err)
		}
		refSums[i] = rep.Summary()
	}

	// Run 1: the first evaluation completes and is journaled; the fault
	// then kills every later evaluation (After skips the first
	// invocation of the site).
	opts := smokeOpts()
	opts.Resume = jpath
	e1 := NewEvaluator(opts)
	restore := faults.Enable(faults.NewPlan(1,
		faults.Rule{Site: "harness.report", Kind: faults.Transient, Rate: 1, After: 1}))
	keys := resumeKeys(e1)
	rep0, err := e1.Report(keys[0])
	if err != nil {
		t.Fatalf("first report under fault plan: %v", err)
	}
	if _, err := e1.Report(keys[1]); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("second report: err = %v, want injected kill", err)
	}
	restore()
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rep0.Summary(); got != refSums[0] {
		t.Errorf("faulted run report differs from reference:\n%s\n%s", got, refSums[0])
	}

	// Run 2: a fresh evaluator resumes from the journal.
	e2 := NewEvaluator(opts)
	defer e2.Close()
	if e2.Restored() != 1 {
		t.Fatalf("restored %d reports, want 1", e2.Restored())
	}
	r0, err := e2.Report(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := e2.Evaluations(); n != 0 {
		t.Errorf("journaled report was re-evaluated (%d evaluations)", n)
	}
	if got := r0.Summary(); got != refSums[0] {
		t.Errorf("rehydrated summary differs:\n got %s\nwant %s", got, refSums[0])
	}
	r1, err := e2.Report(keys[1])
	if err != nil {
		t.Fatal(err)
	}
	if n := e2.Evaluations(); n != 1 {
		t.Errorf("evaluations after resume = %d, want 1", n)
	}
	if got := r1.Summary(); got != refSums[1] {
		t.Errorf("resumed summary differs:\n got %s\nwant %s", got, refSums[1])
	}

	// The second run appended its evaluation: a third evaluator restores
	// both.
	e3 := NewEvaluator(opts)
	defer e3.Close()
	if e3.Restored() != 2 {
		t.Errorf("restored %d reports after full campaign, want 2", e3.Restored())
	}
}

// TestResumeJournalRejectsCorruptLines: torn or bit-flipped journal
// lines are dropped on restart instead of poisoning the cache.
func TestResumeJournalRejectsCorruptLines(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	opts := smokeOpts()
	opts.Resume = jpath
	e1 := NewEvaluator(opts)
	k := resumeKeys(e1)[0]
	if _, err := e1.Report(k); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// A torn half-line (killed mid-write) plus a checksum-violating flip
	// of the good line.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x10
	flipped = append(flipped, data[:len(data)/3]...)
	if err := os.WriteFile(jpath, flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := NewEvaluator(opts)
	defer e2.Close()
	if e2.Restored() != 0 {
		t.Fatalf("restored %d reports from corrupt journal, want 0", e2.Restored())
	}
	if _, err := e2.Report(k); err != nil {
		t.Fatalf("evaluation after corrupt journal: %v", err)
	}
	if n := e2.Evaluations(); n != 1 {
		t.Errorf("evaluations = %d, want 1 (corrupt record must not satisfy the cache)", n)
	}
}

// TestResumeJournalRejectsConfigMismatch: a journal written under one
// evaluator configuration must not satisfy a resume under another —
// -slice (like -seed or -selector) changes every report's numbers
// without appearing in the ReportKey, so rehydrating across it would
// silently serve wrong tables.
func TestResumeJournalRejectsConfigMismatch(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	opts := smokeOpts()
	opts.Resume = jpath
	e1 := NewEvaluator(opts)
	k := resumeKeys(e1)[0]
	if _, err := e1.Report(k); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Same key set, different slice unit: the journaled record is valid
	// but was computed under another configuration.
	mopts := opts
	mopts.SliceUnit = opts.config().SliceUnit * 2
	e2 := NewEvaluator(mopts)
	defer e2.Close()
	if e2.Restored() != 0 {
		t.Fatalf("restored %d reports across a config change, want 0", e2.Restored())
	}
	if _, err := e2.Report(k); err != nil {
		t.Fatal(err)
	}
	if n := e2.Evaluations(); n != 1 {
		t.Errorf("evaluations = %d, want 1 (mismatched record must not satisfy the cache)", n)
	}

	// The matching configuration still resumes both runs' records.
	e3 := NewEvaluator(opts)
	defer e3.Close()
	if e3.Restored() != 1 {
		t.Errorf("restored %d reports under the original config, want 1", e3.Restored())
	}
}

// TestDegradedEvaluatorSurvivesRegionLoss: with a region fault injected
// and degraded mode on, an evaluation completes and the report carries
// the loss.
func TestDegradedEvaluatorSurvivesRegionLoss(t *testing.T) {
	opts := smokeOpts()
	opts.Degraded = true
	opts.MinCoverage = 0.01
	opts.Parallelism = 1
	e := NewEvaluator(opts)
	defer faults.Enable(faults.NewPlan(1,
		faults.Rule{Site: "core.region.sim", Kind: faults.Transient, Rate: 1, Count: 1}))()
	rep, err := e.Report(resumeKeys(e)[0])
	if err != nil {
		t.Fatalf("degraded evaluation failed: %v", err)
	}
	if !rep.Degradation.Degraded() {
		t.Error("report does not record the injected region loss")
	}
}
