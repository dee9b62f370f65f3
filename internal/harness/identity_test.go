package harness

import (
	"io"
	"path/filepath"
	"testing"
	"time"

	"looppoint/internal/core"
)

// TestResumeJournalSurvivesParallelismChange: -j is host-only — reports
// are byte-identical at every width — so a journal written at -j 4 must
// resume in full at -j 1, with no record skipped as foreign.
func TestResumeJournalSurvivesParallelismChange(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	wide := smokeOpts()
	wide.Resume = jpath
	wide.Parallelism = 4
	e1 := NewEvaluator(wide)
	keys := resumeKeys(e1)
	sums := make([]string, len(keys))
	for i, k := range keys {
		rep, err := e1.Report(k)
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = rep.Summary()
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	narrow := wide
	narrow.Parallelism = 1
	restored, dropped, mismatched, err := loadJournal(jpath, configFingerprint(narrow.fill()))
	if err != nil {
		t.Fatal(err)
	}
	if mismatched != 0 || dropped != 0 || len(restored) != len(keys) {
		t.Fatalf("at -j 1: restored %d, dropped %d, mismatched %d; want %d, 0, 0",
			len(restored), dropped, mismatched, len(keys))
	}

	e2 := NewEvaluator(narrow)
	defer e2.Close()
	if e2.Restored() != len(keys) {
		t.Fatalf("restored %d reports at -j 1, want %d", e2.Restored(), len(keys))
	}
	for i, k := range keys {
		rep, err := e2.Report(k)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Summary() != sums[i] {
			t.Errorf("rehydrated summary differs:\n got %s\nwant %s", rep.Summary(), sums[i])
		}
	}
	if n := e2.Evaluations(); n != 0 {
		t.Errorf("%d journaled reports were re-evaluated at -j 1", n)
	}
}

// TestConfigFingerprintClassifiesOptions: every evaluator option either
// changes what an evaluation computes, and then the journal fingerprint,
// or is host-only (or part of every ReportKey) and leaves it unchanged.
func TestConfigFingerprintClassifiesOptions(t *testing.T) {
	base := smokeOpts().fill()
	want := configFingerprint(base)
	for _, tc := range []struct {
		name    string
		mutate  func(*Options)
		changes bool
	}{
		{"Parallelism", func(o *Options) { o.Parallelism++ }, false},
		{"Quick", func(o *Options) { o.Quick = !o.Quick }, false},
		{"Log", func(o *Options) { o.Log = io.Discard }, false},
		{"Resume", func(o *Options) { o.Resume = "journal.jsonl" }, false},
		{"ProgressDir", func(o *Options) { o.ProgressDir = "progress" }, false},
		{"ProgressEvery", func(o *Options) { o.ProgressEvery = 4096 }, false},
		{"Progress", func(o *Options) { o.Progress = &core.ProgressStats{} }, false},
		{"Threads", func(o *Options) { o.Threads++ }, false},                // in every ReportKey
		{"InputOverride", func(o *Options) { o.InputOverride = "" }, false}, // in every ReportKey
		{"SliceUnit", func(o *Options) { o.SliceUnit++ }, true},
		{"Seed", func(o *Options) { o.Seed++ }, true},
		{"Selector", func(o *Options) { o.Selector = "stratified" }, true},
		{"SampleBudget", func(o *Options) { o.SampleBudget = 9 }, true},
		{"Confidence", func(o *Options) { o.Confidence = 0.9 }, true},
		{"Degraded", func(o *Options) { o.Degraded = !o.Degraded }, true},
		{"Retries", func(o *Options) { o.Retries = 3 }, true},
		{"RegionTimeout", func(o *Options) { o.RegionTimeout = time.Second }, true},
		{"MinCoverage", func(o *Options) { o.MinCoverage = 0.5 }, true},
	} {
		o := base
		tc.mutate(&o)
		if got := configFingerprint(o) != want; got != tc.changes {
			t.Errorf("%s: fingerprint changed = %v, want %v", tc.name, got, tc.changes)
		}
	}
}
