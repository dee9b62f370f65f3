package dcfg

import (
	"testing"

	"looppoint/internal/exec"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/workloads"
)

// recordedEvents runs p on the block tier and keeps a copy of every
// event (without the Mem/Woken slices the builders never read).
func recordedEvents(t testing.TB, m *exec.Machine) []exec.BlockEvent {
	t.Helper()
	var evs []exec.BlockEvent
	m.AddBlockObserver(exec.BlockObserverFunc(func(ev *exec.BlockEvent) {
		c := *ev
		c.Mem, c.Woken = nil, nil
		evs = append(evs, c)
	}))
	if err := m.RunBlocks(exec.RunOpts{}); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestOnBlockAllocFree pins the DCFG hot path allocation-free: once every
// node, edge and caller-stack slot exists, feeding a whole run's block
// events again — calls, returns and coalesced self-loops included —
// allocates nothing in either builder.
func TestOnBlockAllocFree(t *testing.T) {
	p, _, _, _ := buildNestedLoops(t, 5, 7, 3)
	evs := recordedEvents(t, exec.NewMachine(p, 1))
	var calls int
	for i := range evs {
		if evs[i].Entries > 1 {
			calls++ // a coalesced self-loop pass: the check covers the self-edge path
		}
	}
	if calls == 0 {
		t.Fatal("no coalesced events; the check proves nothing")
	}
	for name, o := range map[string]exec.BlockObserver{
		"Builder":      NewBuilder(p, p.NumThreads()),
		"ShardBuilder": NewShardBuilder(p.NumThreads()),
	} {
		feed := func() {
			for i := range evs {
				o.OnBlock(&evs[i])
			}
		}
		// Two warm-up passes: the second adds the edge from the run's
		// last block back to its first.
		feed()
		feed()
		if allocs := testing.AllocsPerRun(10, feed); allocs != 0 {
			t.Errorf("%s.OnBlock allocates %.1f objects per pass of %d events, want 0", name, allocs, len(evs))
		}
	}
}

// BenchmarkDCFGReplay measures a whole-run DCFG replay of an 8-thread
// npb-cg recording with the Builder on the per-instruction tier (the
// oracle) and on the block tier (production).
func BenchmarkDCFGReplay(b *testing.B) {
	spec, _ := workloads.Lookup("npb-cg")
	built, err := spec.Build(workloads.BuildParams{Threads: 8, Input: workloads.InputTest, Policy: omp.Passive})
	if err != nil {
		b.Fatal(err)
	}
	p := built.Prog
	pb, err := pinball.Record(p, 42, 4096)
	if err != nil {
		b.Fatal(err)
	}
	steps := float64(pb.Schedule.Steps())
	for _, tier := range []struct {
		name string
		obs  func(*Builder) exec.Observer
	}{
		{"perinstr", func(db *Builder) exec.Observer { return exec.ObserverFunc(db.OnInstr) }},
		{"block", func(db *Builder) exec.Observer { return db }},
	} {
		b.Run(tier.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db := NewBuilder(p, p.NumThreads())
				if _, err := pb.Replay(p, tier.obs(db)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(steps*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}
