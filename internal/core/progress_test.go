package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"looppoint/internal/artifact"
	"looppoint/internal/dcfg"
	"looppoint/internal/faults"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
	"looppoint/internal/timing"
)

// durableConfig is testConfig with durable progress aimed at dir and a
// fresh stats sink.
func durableConfig(dir string) Config {
	cfg := testConfig()
	cfg.ProgressDir = dir
	cfg.ProgressEvery = 2048
	cfg.ProgressKey = "job"
	cfg.Progress = &ProgressStats{}
	return cfg
}

// progressFiles lists the job's epoch files in dir.
func progressFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".progress") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	return files
}

// TestAnalyzeDurableIdentity pins the crash-only pipeline's profile
// byte-identical to the serial reference at several epoch widths,
// including a width wider than the whole recording.
func TestAnalyzeDurableIdentity(t *testing.T) {
	for name, p := range parallelTestPrograms() {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.fill()
			pb := recordFor(t, p, cfg)
			want, err := analyzeSerial(p, cfg, pb)
			if err != nil {
				t.Fatal(err)
			}
			total := pb.Schedule.Steps()
			for _, every := range []uint64{0, 512, total / 3, total + 1000} {
				dcfg := durableConfig(t.TempDir())
				dcfg.fill()
				dcfg.ProgressEvery = every
				got, err := analyzeDurable(p, dcfg)
				if err != nil {
					t.Fatalf("every=%d: %v", every, err)
				}
				analysisEquals(t, name, got, want)
				saves, fails, recov, _, _ := dcfg.Progress.Snapshot()
				if saves == 0 || fails != 0 || recov != 0 {
					t.Fatalf("every=%d: saves=%d fails=%d recoveries=%d on a clean run", every, saves, fails, recov)
				}
			}
		})
	}
}

// crashAnalyze runs the durable analysis with a one-shot Panic armed at
// the save site — the in-process stand-in for SIGKILL mid-job — and
// reports whether the "kill" fired. Progress written before the kill
// stays durable; the epoch being saved when the kill lands is lost,
// exactly like a real torn run.
func crashAnalyze(t *testing.T, p *isa.Program, cfg Config, after uint64) (killed bool) {
	t.Helper()
	plan := faults.NewPlan(faults.SeedFromEnv(7),
		faults.Rule{Site: "core.progress.save", Kind: faults.Panic, Rate: 1, Count: 1, After: after})
	defer faults.Enable(plan)()
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *faults.Fault:
			killed = true
		default:
			panic(r)
		}
	}()
	if _, err := analyzeDurable(p, cfg); err != nil {
		t.Fatalf("durable analysis died before the kill: %v", err)
	}
	return killed
}

// TestAnalyzeDurableResumeAfterKill is the chaos drill: kill the worker
// at several points of both analysis phases, restart it cold, and
// require the resumed run to (a) skip re-replaying the durable prefix
// (recovery_steps_saved > 0) and (b) produce an analysis byte-identical
// to the uninterrupted serial reference.
func TestAnalyzeDurableResumeAfterKill(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	cfg := testConfig()
	cfg.fill()
	pb := recordFor(t, p, cfg)
	want, err := analyzeSerial(p, cfg, pb)
	if err != nil {
		t.Fatal(err)
	}

	// Count the clean run's saves so kill positions can target the
	// start, the middle (straddling the phase boundary), and the tail.
	probe := durableConfig(t.TempDir())
	probe.fill()
	if _, err := analyzeDurable(p, probe); err != nil {
		t.Fatal(err)
	}
	saves, _, _, _, _ := probe.Progress.Snapshot()
	if saves < 4 {
		t.Fatalf("only %d epoch saves; recording too short for the drill", saves)
	}

	for _, after := range []uint64{1, saves / 2, saves - 2} {
		dir := t.TempDir()
		cfg := durableConfig(dir)
		cfg.fill()
		if !crashAnalyze(t, p, cfg, after) {
			t.Fatalf("kill after %d saves never fired", after)
		}
		if len(progressFiles(t, dir)) == 0 {
			t.Fatalf("kill after %d saves left no durable progress", after)
		}

		// Cold restart: fresh stats, no faults.
		cfg.Progress = &ProgressStats{}
		got, err := analyzeDurable(p, cfg)
		if err != nil {
			t.Fatalf("restart after kill@%d: %v", after, err)
		}
		analysisEquals(t, "resumed", got, want)
		_, _, recoveries, stepsSaved, _ := cfg.Progress.Snapshot()
		if recoveries != 1 {
			t.Fatalf("kill@%d: %d recoveries, want 1", after, recoveries)
		}
		if stepsSaved == 0 {
			t.Fatalf("kill@%d: recovery saved no steps", after)
		}
	}
}

// TestAnalyzeDurableResumesAcrossHostSettings: worker, shard, and epoch
// widths are host-only, so a job killed under one set resumes under
// another — the progress fingerprint and file stem must not change.
func TestAnalyzeDurableResumesAcrossHostSettings(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	cfg := testConfig()
	cfg.fill()
	want, err := analyzeSerial(p, cfg, recordFor(t, p, cfg))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	killed := durableConfig(dir)
	killed.AnalyzeWorkers, killed.CheckpointEvery, killed.ClusterWorkers = 4, 4096, 4
	killed.fill()
	if !crashAnalyze(t, p, killed, 3) {
		t.Fatal("kill never fired")
	}

	restart := durableConfig(dir)
	restart.AnalyzeWorkers, restart.CheckpointEvery, restart.ClusterWorkers = 1, 0, 1
	restart.ProgressEvery = 1024
	restart.fill()
	if progressFingerprint(p, &restart) != progressFingerprint(p, &killed) {
		t.Fatal("host-only settings changed the progress fingerprint")
	}
	got, err := Analyze(p, restart)
	if err != nil {
		t.Fatal(err)
	}
	analysisEquals(t, "resumed-across-host-settings", got, want)
	if _, _, recoveries, stepsSaved, _ := restart.Progress.Snapshot(); recoveries != 1 || stepsSaved == 0 {
		t.Fatalf("recoveries=%d steps_saved=%d, want a resume from the killed run's epochs", recoveries, stepsSaved)
	}
}

// TestAnalyzeDurableCorruptLadderFalls: with the newest epoch file
// bit-flipped and a stray temp file in the directory, the restart falls
// one rung down the ladder, resumes from the older epoch, and still
// reproduces the reference analysis. With every rung corrupted it
// restarts from step 0 — corruption never wedges or poisons a job.
func TestAnalyzeDurableCorruptLadderFalls(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	cfg := testConfig()
	cfg.fill()
	pb := recordFor(t, p, cfg)
	want, err := analyzeSerial(p, cfg, pb)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	dcfg := durableConfig(dir)
	dcfg.fill()
	if !crashAnalyze(t, p, dcfg, 5) {
		t.Fatal("kill never fired")
	}
	files := progressFiles(t, dir)
	if len(files) != progressRetain {
		t.Fatalf("%d retained epoch files, want %d", len(files), progressRetain)
	}

	// Corrupt the newest rung; leave a stray temp file (the crash-
	// between-write-and-rename artifact) that loaders must ignore.
	newest := files[len(files)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest+".tmp123", []byte("torn temp write"), 0o644); err != nil {
		t.Fatal(err)
	}

	dcfg.Progress = &ProgressStats{}
	got, err := analyzeDurable(p, dcfg)
	if err != nil {
		t.Fatalf("restart over corrupt rung: %v", err)
	}
	analysisEquals(t, "ladder-fall resume", got, want)
	_, _, recoveries, _, falls := dcfg.Progress.Snapshot()
	if falls < 1 {
		t.Fatalf("%d ladder falls, want >= 1", falls)
	}
	if recoveries != 1 {
		t.Fatalf("%d recoveries, want 1 (from the older rung)", recoveries)
	}
	if _, err := os.Stat(newest); !os.IsNotExist(err) {
		t.Fatalf("corrupt rung %s not quarantined", newest)
	}

	// Corrupt every remaining rung: restart must fall to step 0 and
	// still match.
	for _, f := range progressFiles(t, dir) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-3] ^= 0x80
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dcfg.Progress = &ProgressStats{}
	got, err = analyzeDurable(p, dcfg)
	if err != nil {
		t.Fatalf("restart from zero: %v", err)
	}
	analysisEquals(t, "restart-from-zero", got, want)
	_, _, recoveries, _, _ = dcfg.Progress.Snapshot()
	if recoveries != 0 {
		t.Fatalf("%d recoveries with every rung corrupt, want 0", recoveries)
	}
}

// TestAnalyzeDurableSaveFaultNonFatal: every save failing (injected
// Transient) costs resumability, never the analysis itself.
func TestAnalyzeDurableSaveFaultNonFatal(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	cfg := testConfig()
	cfg.fill()
	pb := recordFor(t, p, cfg)
	want, err := analyzeSerial(p, cfg, pb)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dcfg := durableConfig(dir)
	dcfg.fill()
	defer faults.Enable(faults.NewPlan(faults.SeedFromEnv(3),
		faults.Rule{Site: "core.progress.save", Kind: faults.Transient, Rate: 1}))()
	got, err := analyzeDurable(p, dcfg)
	if err != nil {
		t.Fatalf("analysis failed under save faults: %v", err)
	}
	analysisEquals(t, "save-faulted", got, want)
	saves, fails, _, _, _ := dcfg.Progress.Snapshot()
	if saves != 0 || fails == 0 {
		t.Fatalf("saves=%d fails=%d under a Rate-1 Transient", saves, fails)
	}
	if n := len(progressFiles(t, dir)); n != 0 {
		t.Fatalf("%d progress files written despite save faults", n)
	}
}

// TestAnalyzeDurableLoadFaultFallsToZero: transient load faults on every
// rung mean no recovery — but the rungs are NOT quarantined (the bytes
// were never proven bad), and the job completes from step 0.
func TestAnalyzeDurableLoadFaultFallsToZero(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.fill()
	if !crashAnalyze(t, p, cfg, 4) {
		t.Fatal("kill never fired")
	}
	before := len(progressFiles(t, dir))
	if before == 0 {
		t.Fatal("no durable progress to fault")
	}
	cfg.Progress = &ProgressStats{}
	restore := faults.Enable(faults.NewPlan(faults.SeedFromEnv(3),
		faults.Rule{Site: "core.progress.load", Kind: faults.Transient, Rate: 1}))
	_, err := analyzeDurable(p, cfg)
	restore()
	if err != nil {
		t.Fatalf("analysis failed under load faults: %v", err)
	}
	_, _, recoveries, _, falls := cfg.Progress.Snapshot()
	if recoveries != 0 || falls < uint64(before) {
		t.Fatalf("recoveries=%d falls=%d under Rate-1 load faults over %d rungs", recoveries, falls, before)
	}
}

// partialMerge replays the whole recording through one shard builder
// and merges it into an empty graph — a genuine mid-analysis graph and
// carry for the envelope matrix tests.
func partialMerge(p *isa.Program, pb *pinball.Pinball) (*dcfg.Graph, dcfg.Carry, error) {
	sb := dcfg.NewShardBuilder(p.NumThreads())
	if _, err := pb.ReplayWindow(p, pb.StartCheckpoint(), pb.Schedule.Steps(), sb); err != nil {
		return nil, dcfg.Carry{}, err
	}
	g := dcfg.NewGraph(p)
	carry, err := sb.MergeInto(g, dcfg.StartCarry(p.NumThreads()))
	if err != nil {
		return nil, dcfg.Carry{}, err
	}
	return g, carry, nil
}

// TestProgressEnvelopeTruncation: a truncation at any 8-byte boundary
// (and at the raw tail) classifies as ErrTruncated with a byte offset,
// never a panic or a silent success.
func TestProgressEnvelopeTruncation(t *testing.T) {
	data := buildProgressEnvelope(t)
	for cut := 0; cut < len(data); cut += 8 {
		if _, _, err := decodeProgress(data[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(data))
		} else if !errors.Is(err, artifact.ErrTruncated) && !errors.Is(err, artifact.ErrCorrupt) {
			t.Fatalf("truncation at %d: wrong class %v", cut, err)
		}
	}
	if _, _, err := decodeProgress(data[:len(data)-1]); !errors.Is(err, artifact.ErrTruncated) && !errors.Is(err, artifact.ErrCorrupt) {
		t.Fatalf("tail truncation: wrong class %v", err)
	}
	if _, _, err := decodeProgress(data); err != nil {
		t.Fatalf("pristine envelope rejected: %v", err)
	}
}

// TestProgressEnvelopeCorruptFlips: single-bit flips across the file —
// sampled at a prime stride plus both edges — always classify into the
// artifact sentinels.
func TestProgressEnvelopeCorruptFlips(t *testing.T) {
	data := buildProgressEnvelope(t)
	offsets := []int{0, 1, 7, 8, 15, len(data) - 2, len(data) - 1}
	for off := 16; off < len(data); off += 251 {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		_, _, err := decodeProgress(mut)
		if err == nil {
			t.Fatalf("bit flip at %d accepted", off)
		}
		if !errors.Is(err, artifact.ErrCorrupt) && !errors.Is(err, artifact.ErrTruncated) && !errors.Is(err, artifact.ErrVersion) {
			t.Fatalf("bit flip at %d: unclassified error %v", off, err)
		}
	}
}

// TestProgressEnvelopeVersionSkew: a future format version (with a
// recomputed valid checksum) classifies as ErrVersion.
func TestProgressEnvelopeVersionSkew(t *testing.T) {
	data := buildProgressEnvelope(t)
	mut := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(mut[len(progMagic):], progressVersion+1)
	sum := artifact.Update(artifact.FNVOffset, mut[len(progMagic):len(mut)-8])
	binary.LittleEndian.PutUint64(mut[len(mut)-8:], sum)
	if _, _, err := decodeProgress(mut); !errors.Is(err, artifact.ErrVersion) {
		t.Fatalf("version skew classified as %v, want ErrVersion", err)
	}
}

// buildProgressEnvelope encodes a genuine mid-phase-0 progress file from
// a short recording.
func buildProgressEnvelope(t *testing.T) []byte {
	t.Helper()
	p := testprog.Phased(2, 3, 30, omp.Passive)
	cfg := testConfig()
	cfg.fill()
	pb := recordFor(t, p, cfg)
	g, carry, err := partialMerge(p, pb)
	if err != nil {
		t.Fatal(err)
	}
	cs := carry.State()
	data, err := encodeProgress(pb.StartCheckpoint(), &progressState{
		Key: "job", Fingerprint: "fp", Epoch: 3, Phase: 0,
		Total: pb.Schedule.Steps(), Every: 64, Graph: g.State(), Carry: &cs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSimulateRegionsResumeFromJournal: a sweep journals every region;
// a restarted sweep serves all of them from the journal — proven by
// arming a Rate-1 fault at the simulation site, which recovered regions
// never reach — with identical results including recorded host times.
func TestSimulateRegionsResumeFromJournal(t *testing.T) {
	dir := t.TempDir()
	p := testprog.Phased(4, 10, 150, omp.Passive)
	cfg := durableConfig(dir)
	a, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	first, err := SimulateRegionsN(sel, timing.Gainestown(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	saves1, _, _, _, _ := cfg.Progress.Snapshot()

	// Every fresh simulation would fail — recovered regions never
	// simulate, so an error-free identical sweep proves full recovery.
	defer faults.Enable(faults.NewPlan(faults.SeedFromEnv(2),
		faults.Rule{Site: "core.region.sim", Kind: faults.Transient, Rate: 1}))()
	second, err := SimulateRegionsN(sel, timing.Gainestown(4), 2)
	if err != nil {
		t.Fatalf("journal-resumed sweep failed: %v", err)
	}
	if !reflect.DeepEqual(second, first) {
		t.Fatal("journal-resumed results differ from the original sweep")
	}
	saves2, _, recoveries, stepsSaved, _ := cfg.Progress.Snapshot()
	if recoveries == 0 || stepsSaved == 0 {
		t.Fatalf("recoveries=%d stepsSaved=%d after journal resume", recoveries, stepsSaved)
	}
	if saves2 != saves1 {
		t.Fatalf("journal grew on a fully recovered sweep (%d -> %d saves)", saves1, saves2)
	}
}

// TestSimProgressCorruptLineResimulated: a corrupted journal line drops
// its region from recovery; the restarted sweep re-simulates exactly
// that region and the statistics still match end to end.
func TestSimProgressCorruptLineResimulated(t *testing.T) {
	dir := t.TempDir()
	p := testprog.Phased(4, 10, 150, omp.Passive)
	cfg := durableConfig(dir)
	a, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	first, err := SimulateRegionsN(sel, timing.Gainestown(4), 1)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the first journal line's record.
	var simPath string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".sim.progress") {
			simPath = filepath.Join(dir, e.Name())
		}
	}
	if simPath == "" {
		t.Fatal("no sim journal written")
	}
	data, err := os.ReadFile(simPath)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 2 {
		t.Fatal("journal has no complete line")
	}
	data[nl/2] ^= 0x04
	if err := os.WriteFile(simPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	second, err := SimulateRegionsN(sel, timing.Gainestown(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != len(first) {
		t.Fatalf("%d results after corrupt line, want %d", len(second), len(first))
	}
	for i := range first {
		if !reflect.DeepEqual(second[i].Stats, first[i].Stats) {
			t.Fatalf("region %d stats differ after journal corruption", i)
		}
	}
}

// TestSimulateRegionsResumePartialDegraded: a degraded sweep that loses
// regions journals only the survivors; the clean restart re-simulates
// just the losses and matches the never-faulted reference.
func TestSimulateRegionsResumePartialDegraded(t *testing.T) {
	dir := t.TempDir()
	p := testprog.Phased(4, 10, 150, omp.Passive)
	cfg := durableConfig(dir)
	a, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(a)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := SimulateRegionsN(sel, timing.Gainestown(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Wipe the journal the reference sweep just wrote: the degraded
	// sweep below must start cold to lose anything.
	for _, f := range simJournals(t, dir) {
		os.Remove(f)
	}

	restore := faults.Enable(faults.NewPlan(faults.SeedFromEnv(4),
		faults.Rule{Site: "core.region.sim", Kind: faults.Transient, Rate: 1, Count: 1}))
	partial, deg, err := SimulateRegionsOpt(sel, timing.Gainestown(4), SimOpts{
		Width: 1, Degraded: true, MinCoverage: 0.01,
	})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Degraded() || len(partial) >= len(sel.Points) {
		t.Fatalf("fault did not degrade the sweep (%d of %d survived)", len(partial), len(sel.Points))
	}

	full, err := SimulateRegionsN(sel, timing.Gainestown(4), 1)
	if err != nil {
		t.Fatalf("restart after degraded sweep: %v", err)
	}
	for i := range reference {
		if !reflect.DeepEqual(full[i].Stats, reference[i].Stats) {
			t.Fatalf("region %d stats differ after partial resume", i)
		}
	}
}

func simJournals(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".sim.progress") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	return files
}
