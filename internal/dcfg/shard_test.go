package dcfg

import (
	"reflect"
	"testing"

	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
	"looppoint/internal/workloads"
)

func shardRecordings(t *testing.T) map[string]struct {
	prog *isa.Program
	pb   *pinball.Pinball
} {
	t.Helper()
	out := map[string]struct {
		prog *isa.Program
		pb   *pinball.Pinball
	}{}
	for _, rec := range []struct {
		name string
		prog *isa.Program
		seed uint64
		flow uint64
	}{
		{"phased", testprog.Phased(4, 3, 40, omp.Passive), 5, 0},
		{"syscalls", testprog.WithSyscalls(4, 60, omp.Passive), 11, 16},
		{"active", testprog.Phased(3, 2, 20, omp.Active), 1, 8},
	} {
		pb, err := pinball.Record(rec.prog, rec.seed, rec.flow)
		if err != nil {
			t.Fatalf("%s: %v", rec.name, err)
		}
		out[rec.name] = struct {
			prog *isa.Program
			pb   *pinball.Pinball
		}{rec.prog, pb}
	}
	return out
}

// serialGraph builds the reference whole-run graph: a Builder attached
// per instruction (its OnInstr oracle tier) to a full constrained
// replay. core.Analyze attaches the same builder on the block tier, so
// every identity test against serialGraph compares the two tiers.
func serialGraph(t *testing.T, p *isa.Program, pb *pinball.Pinball) *Graph {
	t.Helper()
	db := NewBuilder(p, p.NumThreads())
	if _, err := pb.Replay(p, exec.ObserverFunc(db.OnInstr)); err != nil {
		t.Fatal(err)
	}
	return db.Graph()
}

// shardedGraph replays each checkpoint window with its own ShardBuilder
// and merges the shards in order.
func shardedGraph(t *testing.T, p *isa.Program, pb *pinball.Pinball, every uint64) *Graph {
	t.Helper()
	cks, err := pb.Checkpoints(p, every)
	if err != nil {
		t.Fatal(err)
	}
	total := pb.Schedule.Steps()
	shards := make([]*ShardBuilder, len(cks))
	for k, ck := range cks {
		width := total - ck.Step
		if k < len(cks)-1 {
			width = cks[k+1].Step - ck.Step
		}
		sb := NewShardBuilder(p.NumThreads())
		if _, err := pb.ReplayWindow(p, ck, width, sb); err != nil {
			t.Fatalf("every=%d window %d: %v", every, k, err)
		}
		shards[k] = sb
	}
	g, err := MergeShards(p, shards)
	if err != nil {
		t.Fatalf("every=%d: %v", every, err)
	}
	return g
}

// TestShardGraphIdentity pins the merged shard graph deep-equal to the
// serial builder's graph — node counts, per-thread counts, edge kinds,
// trip counts, and the first-occurrence Out/In adjacency order — across
// shard widths, including a width wider than the whole run (one shard:
// degenerates to serial) and a width that leaves a tiny tail shard.
func TestShardGraphIdentity(t *testing.T) {
	for name, w := range shardRecordings(t) {
		t.Run(name, func(t *testing.T) {
			want := serialGraph(t, w.prog, w.pb)
			total := w.pb.Schedule.Steps()
			for _, every := range []uint64{total / 2, total / 3, total / 5, total / 8, total - 1, total + 10, 64} {
				if every == 0 {
					continue
				}
				got := shardedGraph(t, w.prog, w.pb, every)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("every=%d: merged shard graph differs from serial (%v vs %v)", every, got, want)
					continue
				}
				// Belt and braces: the sorted edge view agrees too.
				ge, we := got.Edges(), want.Edges()
				if len(ge) != len(we) {
					t.Fatalf("every=%d: %d edges, want %d", every, len(ge), len(we))
				}
				for i := range ge {
					if *ge[i] != *we[i] {
						t.Fatalf("every=%d: edge %d = %+v, want %+v", every, i, *ge[i], *we[i])
					}
				}
			}
		})
	}
}

// TestShardLoopsIdentity confirms loop detection — a pure function of
// the graph — agrees between the serial and merged-shard graphs, since
// StableMarkers derived from it steer the whole analysis.
func TestShardLoopsIdentity(t *testing.T) {
	for name, w := range shardRecordings(t) {
		t.Run(name, func(t *testing.T) {
			want := serialGraph(t, w.prog, w.pb).FindLoops()
			total := w.pb.Schedule.Steps()
			got := shardedGraph(t, w.prog, w.pb, total/4).FindLoops()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("loops differ: %v vs %v", got, want)
			}
		})
	}
}

// TestBuildersAreBlockObservers: both builders are block-tier
// observers, so Replay, ReplayWindow and the durable epoch loop drive
// them with coalesced events; their OnInstr stays as the oracle.
func TestBuildersAreBlockObservers(t *testing.T) {
	for _, o := range []exec.Observer{NewBuilder(isa.NewProgram("empty", 1), 1), NewShardBuilder(1)} {
		if _, ok := o.(exec.BlockObserver); !ok {
			t.Fatalf("%T must implement exec.BlockObserver", o)
		}
	}
}

// tierRecordings is shardRecordings plus recordings taken under host
// imbalance (QuantumBias, the core.Config.HostBias mechanism): the
// synthetic programs again, and quick SPEC/NPB programs at test input
// under both wait policies — spin loops coalesce long self-loop runs,
// futex waits resume threads mid-block.
func tierRecordings(t *testing.T) map[string]struct {
	prog *isa.Program
	pb   *pinball.Pinball
} {
	t.Helper()
	out := shardRecordings(t)
	progs := map[string]*isa.Program{
		"phased-bias":   testprog.Phased(4, 3, 40, omp.Passive),
		"syscalls-bias": testprog.WithSyscalls(4, 60, omp.Passive),
	}
	for _, app := range []struct {
		name   string
		policy omp.WaitPolicy
	}{
		{"657.xz_s.2", omp.Active},
		{"644.nab_s.1", omp.Passive},
		{"npb-cg", omp.Passive},
	} {
		spec, ok := workloads.Lookup(app.name)
		if !ok {
			t.Fatalf("unknown workload %s", app.name)
		}
		built, err := spec.Build(workloads.BuildParams{Threads: 4, Input: workloads.InputTest, Policy: app.policy})
		if err != nil {
			t.Fatal(err)
		}
		progs[app.name] = built.Prog
	}
	for name, p := range progs {
		bias := make([]int, p.NumThreads())
		for i := range bias {
			bias[i] = 1 + i%3
		}
		pb, err := pinball.RecordWithOptions(p, 7, exec.RunOpts{FlowWindow: 4096, QuantumBias: bias})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = struct {
			prog *isa.Program
			pb   *pinball.Pinball
		}{p, pb}
	}
	return out
}

// windowedGraph replays the whole recording on one machine, hands each
// every-step window of the schedule to a fresh ShardBuilder — on the
// block tier, or per instruction through OnInstr — and merges it into
// the graph as soon as its window ends: the carry chain MergeShards
// runs, without holding a checkpoint or a builder per window, so even
// one-step windows stay cheap.
func windowedGraph(t *testing.T, p *isa.Program, pb *pinball.Pinball, every uint64, perInstr bool) *Graph {
	t.Helper()
	m, replay := pb.ReplayFrom(p, pb.StartCheckpoint())
	var sb *ShardBuilder
	if perInstr {
		m.AddObserver(exec.ObserverFunc(func(ev *exec.Event) { sb.OnInstr(ev) }))
	} else {
		m.AddBlockObserver(exec.BlockObserverFunc(func(ev *exec.BlockEvent) { sb.OnBlock(ev) }))
	}
	g := NewGraph(p)
	carry := StartCarry(p.NumThreads())
	var window exec.Schedule
	flush := func() {
		sb = NewShardBuilder(p.NumThreads())
		if err := m.RunSchedule(window); err != nil {
			t.Fatalf("every=%d: %v", every, err)
		}
		var err error
		if carry, err = sb.MergeInto(g, carry); err != nil {
			t.Fatalf("every=%d: %v", every, err)
		}
		window = window[:0]
	}
	var fill uint64
	for _, e := range pb.Schedule {
		for n := uint64(e.N); n > 0; {
			take := n
			if room := every - fill; take > room {
				take = room
			}
			window = append(window, exec.ScheduleEntry{Tid: e.Tid, N: uint32(take)})
			n -= take
			if fill += take; fill == every {
				flush()
				fill = 0
			}
		}
	}
	if len(window) > 0 {
		flush()
	}
	if replay.Diverged {
		t.Fatalf("every=%d: syscall log exhausted", every)
	}
	return g
}

// TestBlockTierMatchesPerInstr pins the block-tier builders deep-equal
// to their per-instruction oracle: the serial Builder over a whole
// replay, and ShardBuilder windows merged through the carry chain. The
// window widths split coalesced self-loop passes (7), start windows at
// every step — mid-block after calls, returns and futex wakes, inside
// spin loops (1) — and fall at unaligned (4097) and coarse (total/3)
// boundaries.
func TestBlockTierMatchesPerInstr(t *testing.T) {
	for name, w := range tierRecordings(t) {
		t.Run(name, func(t *testing.T) {
			want := serialGraph(t, w.prog, w.pb)
			db := NewBuilder(w.prog, w.prog.NumThreads())
			if _, err := w.pb.Replay(w.prog, db); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(db.Graph(), want) {
				t.Fatalf("block-tier Builder graph differs from per-instruction (%v vs %v)", db.Graph(), want)
			}
			total := w.pb.Schedule.Steps()
			for _, every := range []uint64{1, 7, 4097, total / 3} {
				if got := windowedGraph(t, w.prog, w.pb, every, false); !reflect.DeepEqual(got, want) {
					t.Errorf("every=%d: block-tier shard graph differs from per-instruction (%v vs %v)", every, got, want)
				}
			}
			if got := windowedGraph(t, w.prog, w.pb, total/3, true); !reflect.DeepEqual(got, want) {
				t.Errorf("per-instruction shard graph differs from per-instruction Builder (%v vs %v)", got, want)
			}
		})
	}
}
