package looppoint

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goRun executes one of the repository's commands via `go run`.
func goRun(t *testing.T, args ...string) string {
	t.Helper()
	out, err := goRunEnv(nil, args...)
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return out
}

// goRunEnv executes a command with extra environment variables and
// returns its combined output and exit error (nil on success) — the
// variant fault-tolerance tests use to assert on nonzero exits.
func goRunEnv(env []string, args ...string) (string, error) {
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCmdLooppointList(t *testing.T) {
	out := goRun(t, "./cmd/looppoint", "-list")
	for _, want := range []string{"603.bwaves_s.1", "657.xz_s.2", "npb-mg", "demo-matrix-1"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %s", want)
		}
	}
}

func TestCmdLooppointDemoEndToEnd(t *testing.T) {
	out := goRun(t, "./cmd/looppoint", "-p", "demo-matrix-1", "-n", "4", "-i", "test")
	for _, want := range []string{"regions profiled", "looppoints selected", "runtime error", "theoretical speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("driver output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdLpprofile(t *testing.T) {
	out := goRun(t, "./cmd/lpprofile", "-p", "demo-matrix-1", "-n", "4", "-i", "test", "-slice", "2000", "-regions")
	if !strings.Contains(out, "selected looppoints") || !strings.Contains(out, "all regions") {
		t.Errorf("lpprofile output incomplete:\n%s", out)
	}
	csv := goRun(t, "./cmd/lpprofile", "-p", "demo-matrix-1", "-n", "4", "-i", "test", "-csv")
	if !strings.Contains(csv, "region,start,end") {
		t.Errorf("lpprofile CSV header missing:\n%s", csv)
	}
}

// TestCmdRejectsUnknownInputClass: a misspelled input class exits
// nonzero instead of silently running at test scale.
func TestCmdRejectsUnknownInputClass(t *testing.T) {
	for _, args := range [][]string{
		{"./cmd/lpprofile", "-p", "demo-matrix-1", "-n", "4", "-i", "trian"},
		{"./cmd/lpreport", "-figures", "tables", "-input", "trian"},
	} {
		out, err := goRunEnv(nil, args...)
		if err == nil {
			t.Errorf("%v exited 0:\n%s", args, out)
		} else if !strings.Contains(out, `unknown input class "trian"`) {
			t.Errorf("%v: error does not name the bad class:\n%s", args, out)
		}
	}
}

func TestCmdLpsim(t *testing.T) {
	out := goRun(t, "./cmd/lpsim", "-p", "demo-matrix-1", "-n", "4", "-i", "test")
	for _, want := range []string{"instructions", "cycles", "IPC", "L2 MPKI"} {
		if !strings.Contains(out, want) {
			t.Errorf("lpsim output missing %q:\n%s", want, out)
		}
	}
	inorder := goRun(t, "./cmd/lpsim", "-p", "demo-matrix-1", "-n", "4", "-i", "test", "-inorder")
	if !strings.Contains(inorder, "inorder") {
		t.Errorf("in-order flag ignored:\n%s", inorder)
	}
	periodic := goRun(t, "./cmd/lpsim", "-p", "demo-matrix-1", "-n", "4", "-i", "test", "-periodic", "500:5000")
	if !strings.Contains(periodic, "cycles") {
		t.Errorf("periodic mode broken:\n%s", periodic)
	}
}

func TestCmdLpreportTables(t *testing.T) {
	out := goRun(t, "./cmd/lpreport", "-figures", "tables")
	for _, want := range []string{"Table I", "Table II", "Table III", "Gainestown"} {
		if !strings.Contains(out, want) {
			t.Errorf("lpreport tables missing %q", want)
		}
	}
}

func TestCmdCheckpointWorkflow(t *testing.T) {
	dir := t.TempDir()
	out := goRun(t, "./cmd/lpprofile", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-slice", "3000", "-save-regions", dir, "-save-pinball", dir+"/whole.pinball")
	if !strings.Contains(out, "wrote whole-program pinball") || !strings.Contains(out, ".pinball (region") {
		t.Fatalf("lpprofile did not export checkpoints:\n%s", out)
	}
	// Find an exported region pinball and simulate it with lpsim.
	var region string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "wrote ") && strings.Contains(line, ".r") {
			region = strings.Fields(line)[1]
			break
		}
	}
	if region == "" {
		t.Fatalf("no region pinball path in output:\n%s", out)
	}
	sim := goRun(t, "./cmd/lpsim", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-checkpoint", region)
	if !strings.Contains(sim, "cycles") || !strings.Contains(sim, "IPC") {
		t.Fatalf("lpsim checkpoint output incomplete:\n%s", sim)
	}
	constrained := goRun(t, "./cmd/lpsim", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-checkpoint", region, "-constrained")
	if !strings.Contains(constrained, "cycles") {
		t.Fatalf("lpsim constrained output incomplete:\n%s", constrained)
	}
	// Directory mode: every pinball in the directory simulates on the
	// worker pool, with per-file lines and an aggregate speedup summary.
	dirSim := goRun(t, "./cmd/lpsim", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-checkpoint", dir, "-j", "4")
	for _, want := range []string{"checkpoints of demo-matrix-2", "speedup", "host wall", ".pinball"} {
		if !strings.Contains(dirSim, want) {
			t.Fatalf("lpsim directory checkpoint output missing %q:\n%s", want, dirSim)
		}
	}
	// The zero-copy mapped loader must report the same per-file results
	// as the copying loader, in the same name order, at any -j width.
	mmapSim := goRun(t, "./cmd/lpsim", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-checkpoint", dir, "-j", "2", "-mmap")
	if reportLines(dirSim) != reportLines(mmapSim) {
		t.Fatalf("-mmap directory sweep reports differ from the copying loader:\n--- copy:\n%s\n--- mmap:\n%s",
			dirSim, mmapSim)
	}
}

// reportLines strips the host-timing fields ([host ...], wall-clock
// summary) from a directory-sweep report, leaving only the
// deterministic simulation results for comparison across runs.
func reportLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, "[host"); i >= 0 {
			line = strings.TrimRight(line[:i], " ")
		}
		if strings.Contains(line, "host wall") || strings.Contains(line, "speedup") ||
			strings.Contains(line, "workers") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestCmdLpsimQuarantine corrupts one exported region pinball and
// requires directory-mode lpsim to quarantine it, finish the remaining
// checkpoints, and gate its exit status on -min-coverage.
func TestCmdLpsimQuarantine(t *testing.T) {
	dir := t.TempDir()
	out := goRun(t, "./cmd/lpprofile", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-slice", "3000", "-save-regions", dir, "-verify")
	if !strings.Contains(out, "verified") {
		t.Fatalf("lpprofile -verify did not confirm the artifacts:\n%s", out)
	}
	pinballs, err := filepath.Glob(filepath.Join(dir, "*.pinball"))
	if err != nil || len(pinballs) < 2 {
		t.Fatalf("need >= 2 exported pinballs, got %v (%v)", pinballs, err)
	}
	// Flip one bit in the middle of the first pinball.
	data, err := os.ReadFile(pinballs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(pinballs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Tolerant threshold: the sweep quarantines the bad pinball, keeps
	// going, and exits zero.
	sim, err := goRunEnv(nil, "./cmd/lpsim", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-checkpoint", dir, "-min-coverage", "0.5")
	if err != nil {
		t.Fatalf("lpsim with tolerant -min-coverage failed: %v\n%s", err, sim)
	}
	for _, want := range []string{"QUARANTINED", "quarantined    1 of", "checkpoints of demo-matrix-2"} {
		if !strings.Contains(sim, want) {
			t.Errorf("quarantine output missing %q:\n%s", want, sim)
		}
	}

	// Default threshold (1.0): same sweep must exit nonzero.
	strict, err := goRunEnv(nil, "./cmd/lpsim", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-checkpoint", dir)
	if err == nil {
		t.Fatalf("lpsim accepted lost coverage at -min-coverage 1.0:\n%s", strict)
	}
	if !strings.Contains(strict, "below -min-coverage") {
		t.Errorf("strict run does not explain the coverage failure:\n%s", strict)
	}
}

// TestCmdLpsimEnvFaultRetry injects a transient region fault through the
// FAULTS_PLAN environment and requires -retries to absorb it.
func TestCmdLpsimEnvFaultRetry(t *testing.T) {
	dir := t.TempDir()
	goRun(t, "./cmd/lpprofile", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-slice", "3000", "-save-regions", dir)
	env := []string{"FAULTS_PLAN=lpsim.region:transient:1:1", "FAULTS_SEED=1"}

	// Without retries the injected fault quarantines a checkpoint.
	out, err := goRunEnv(env, "./cmd/lpsim", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-checkpoint", dir, "-min-coverage", "0.1")
	if err != nil {
		t.Fatalf("faulted sweep failed outright: %v\n%s", err, out)
	}
	if !strings.Contains(out, "QUARANTINED") {
		t.Fatalf("injected fault did not quarantine a checkpoint:\n%s", out)
	}

	// With an attempt budget the retry absorbs the transient fault.
	out, err = goRunEnv(env, "./cmd/lpsim", "-p", "demo-matrix-2", "-n", "4", "-i", "test",
		"-checkpoint", dir, "-retries", "3")
	if err != nil {
		t.Fatalf("sweep with -retries failed: %v\n%s", err, out)
	}
	if strings.Contains(out, "QUARANTINED") {
		t.Errorf("-retries 3 did not absorb the transient fault:\n%s", out)
	}
}

// TestCmdLpreportQuickHeadersGolden runs the whole quick report on
// test-class inputs with a parallel pool and pins the section headers
// against a golden file: every experiment must be present, titled as
// the paper's artifact, and unaffected by the -j width.
func TestCmdLpreportQuickHeadersGolden(t *testing.T) {
	out := goRun(t, "./cmd/lpreport", "-quick", "-input", "test", "-slice", "2000", "-j", "4")
	var got strings.Builder
	for _, line := range strings.Split(out, "\n") {
		for _, prefix := range []string{"Table ", "Fig", "Section ", "SecV", "Ablation:"} {
			if strings.HasPrefix(line, prefix) {
				got.WriteString(line)
				got.WriteByte('\n')
				break
			}
		}
	}
	want, err := os.ReadFile("testdata/lpreport_quick_headers.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("section headers differ from testdata/lpreport_quick_headers.golden:\ngot:\n%swant:\n%s",
			got.String(), want)
	}
}

func TestCmdLpprofileDisasmAndDot(t *testing.T) {
	out := goRun(t, "./cmd/lpprofile", "-p", "demo-matrix-1", "-n", "2", "-i", "test", "-disasm")
	if !strings.Contains(out, "image main") || !strings.Contains(out, "routine omp_barrier") {
		t.Fatalf("disassembly incomplete:\n%.400s", out)
	}
	dir := t.TempDir()
	dot := dir + "/g.dot"
	goRun(t, "./cmd/lpprofile", "-p", "demo-matrix-1", "-n", "2", "-i", "test", "-slice", "3000", "-dot", dot)
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "digraph dcfg {") {
		t.Fatalf("bad DOT file: %.100s", data)
	}
}

func TestCmdTraceWorkflow(t *testing.T) {
	dir := t.TempDir()
	trace := dir + "/demo.trace"
	out := goRun(t, "./cmd/lpsim", "-p", "demo-matrix-1", "-n", "4", "-i", "test",
		"-dump-trace", trace)
	if !strings.Contains(out, "record trace") {
		t.Fatalf("trace dump output: %s", out)
	}
	sim := goRun(t, "./cmd/lpsim", "-n", "4", "-from-trace", trace)
	if !strings.Contains(sim, "CPI stack") || !strings.Contains(sim, "instructions") {
		t.Fatalf("trace-driven output incomplete:\n%s", sim)
	}
}
