package timing

import (
	"fmt"

	"looppoint/internal/bbv"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/pinball"
)

// WarmupMode selects how region simulations warm microarchitectural state.
type WarmupMode int

// Warmup modes.
const (
	// WarmupFunctional fast-forwards from the application start while
	// updating caches and branch predictors functionally — the paper's
	// "perfect warmup" for binary-driven region simulation (III-F).
	WarmupFunctional WarmupMode = iota
	// WarmupNone starts the region cold (used by the warmup ablation).
	WarmupNone
)

func (w WarmupMode) String() string {
	if w == WarmupNone {
		return "none"
	}
	return "functional"
}

// Simulator runs timing simulations of one program under one system
// configuration.
type Simulator struct {
	Cfg  Config
	Prog *isa.Program
	// Seed seeds the OS model for unconstrained runs.
	Seed uint64
	// Trace, when non-nil, collects an IPC-over-time trace (Figure 4).
	Trace *IPCTrace
	// MaxSteps bounds any single simulation (0 = default safety cap).
	MaxSteps uint64

	// sys is the timing-state arena, reused across simulations: the
	// first run pays the allocation wave (cache backing arrays,
	// predictor tables, directory maps), later runs clear and rebind it.
	// Reuse makes a Simulator single-threaded; run one per worker.
	sys *system
}

// New validates the pairing of configuration and program.
func New(cfg Config, prog *isa.Program) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cores < prog.NumThreads() {
		return nil, fmt.Errorf("timing: %d cores for %d threads", cfg.Cores, prog.NumThreads())
	}
	return &Simulator{Cfg: cfg, Prog: prog, Seed: 1, MaxSteps: 2_000_000_000}, nil
}

// Reset re-points the Simulator at a new program and restores New's
// defaults (seed, step cap, no trace) while keeping the
// timing-state arenas for reuse — the region-restart path a sampling
// worker takes between pinballs. It performs the same validation as
// New: after a successful Reset the Simulator behaves exactly as a
// freshly constructed one, only without the allocation wave.
func (s *Simulator) Reset(prog *isa.Program) error {
	if err := s.Cfg.Validate(); err != nil {
		return err
	}
	if s.Cfg.Cores < prog.NumThreads() {
		return fmt.Errorf("timing: %d cores for %d threads", s.Cfg.Cores, prog.NumThreads())
	}
	s.Prog = prog
	s.Seed = 1
	s.Trace = nil
	s.MaxSteps = 2_000_000_000
	return nil
}

// acquireSystem returns the reusable timing system bound to m, clearing
// the cached arena when one exists for the current configuration and
// building it otherwise (the configuration is the arena's shape: core
// count, cache geometry, predictor tables).
func (s *Simulator) acquireSystem(m *exec.Machine) *system {
	if s.sys != nil && s.sys.cfg == s.Cfg {
		s.sys.reset(m)
		return s.sys
	}
	s.sys = newSystem(s.Cfg, m)
	return s.sys
}

// SimulateFull runs an unconstrained, fully detailed simulation of the
// whole program (the reference run sampling is compared against).
func (s *Simulator) SimulateFull() (*Stats, error) {
	return s.SimulateRegion(bbv.Marker{}, bbv.Marker{IsEnd: true}, WarmupFunctional)
}

// SimulateRegion runs an unconstrained, binary-driven simulation of the
// region between two (PC, count) markers: the program executes from its
// initial state with the timing model deciding thread progress; detailed
// measurement is enabled between the markers (paper Section V-A1).
func (s *Simulator) SimulateRegion(start, end bbv.Marker, warm WarmupMode) (*Stats, error) {
	return s.runMarked(exec.NewMachine(s.Prog, s.Seed), start, end, 0, 0, warm, true)
}

// SimulateCheckpoint runs an unconstrained simulation of a region pinball
// starting from its snapshot rather than the program start — the
// ELFie-style executable-checkpoint path the paper cites for fast
// unconstrained region simulation (Section II, "How to simulate"). The
// warmup prefix captured in the pinball warms caches and predictors
// before the (PC, count)-delimited region is measured; the timing model,
// not the recorded schedule, decides thread progress.
func (s *Simulator) SimulateCheckpoint(pb *pinball.Pinball) (*Stats, error) {
	return s.simulateCheckpoint(pb, true)
}

func (s *Simulator) simulateCheckpoint(pb *pinball.Pinball, batched bool) (*Stats, error) {
	if err := pb.Verify(); err != nil {
		return nil, err
	}
	m := exec.NewMachine(s.Prog, s.Seed)
	m.Restore(pb.Start)
	// Recorded syscall results are injected while they last; once the
	// unconstrained interleaving consumes them differently, the OS model
	// takes over.
	replay := exec.NewReplayOS(pb.Syscalls)
	replay.Fallback = exec.NewDefaultOS(s.Seed)
	m.OS = replay
	return s.runMarked(m, pb.Region.Start, pb.Region.End,
		pb.StartHitsAtSnapshot, pb.EndHitsAtSnapshot, WarmupFunctional, batched)
}

// runMarked drives an unconstrained timing simulation on a prepared
// machine, warming until the start marker and measuring until the end
// marker. startBase/endBase rebase global marker counts for machines that
// begin mid-program. batched selects the block-batched fast-forward; the
// reference engine (batched false) fast-forwards one instruction at a
// time.
func (s *Simulator) runMarked(m *exec.Machine, start, end bbv.Marker, startBase, endBase uint64, warm WarmupMode, batched bool) (_ *Stats, err error) {
	defer exec.Recover(&err)
	sys := s.acquireSystem(m)
	inDetail := start.IsStart() || (!start.IsICount() && !start.IsEnd && start.Count <= startBase)
	warming := warm == WarmupFunctional
	sys.setDetail(inDetail)

	startHits, endHits := startBase, endBase
	var steps uint64
	var detailBase float64
	maxSteps := s.MaxSteps
	if maxSteps == 0 {
		maxSteps = 2_000_000_000
	}
	delta := 1.0 / float64(s.Cfg.Dispatch)

	// Fast-forward: until the start marker flips the simulation into
	// detail, instructions retire in block batches — caches, predictors,
	// and the coherence directory warm from the batches' coalesced
	// reference streams (warmBlock), while cycles accumulate the same
	// uniform dispatch slot per instruction the per-instruction loop
	// charges. Batch budgets are capped so the scheduler's pick sequence
	// and every marker boundary land on the exact instructions the
	// per-instruction engine would visit; marker PCs are break PCs, so
	// their block entries arrive as single-instruction events.
	if !inDetail && batched {
		if !start.IsStart() && !start.IsICount() {
			m.AddBreakPC(start.PC)
		}
		if !end.IsEnd && !end.IsICount() {
			m.AddBreakPC(end.PC)
		}
		ev := &exec.BlockEvent{}
		for !inDetail && !m.Done() {
			tid := s.pickNext(m, sys)
			if tid < 0 {
				if m.Deadlocked() {
					return nil, exec.ErrDeadlock
				}
				break
			}
			budget := s.batchAllowance(m, sys, tid, delta)
			if rem := maxSteps - steps; budget > rem {
				budget = rem + 1 // allow the step that trips the cap
			}
			if start.IsICount() {
				// The instruction that crosses the icount boundary must
				// arrive as a single-instruction event (it is charged in
				// full detail); approach the boundary without crossing.
				if rem := start.Count - steps; rem > 1 {
					if rem-1 < budget {
						budget = rem - 1
					}
				} else {
					budget = 1
				}
			}
			if !m.StepBlock(tid, budget, ev) {
				return nil, fmt.Errorf("timing: scheduled thread %d could not step", tid)
			}
			steps += ev.Instrs
			if steps > maxSteps {
				return nil, fmt.Errorf("timing: %w", exec.ErrMaxSteps)
			}

			// Marker bookkeeping in the exact per-instruction order.
			flipped := false
			if start.IsICount() && !inDetail && steps >= start.Count {
				inDetail = true
				sys.setDetail(true)
				detailBase = sys.wallCycle()
				flipped = true
			}
			if end.IsICount() && inDetail && steps >= end.Count {
				return sys.stats(detailBase), nil
			}
			if ev.Entries > 0 {
				if !start.IsStart() && ev.Block.Addr == start.PC {
					startHits += ev.Entries
					if !inDetail && startHits >= start.Count {
						inDetail = true
						sys.setDetail(true)
						detailBase = sys.wallCycle()
						flipped = true
					}
				}
				if !end.IsEnd && ev.Block.Addr == end.PC {
					endHits += ev.Entries
					if inDetail && endHits >= end.Count {
						return sys.stats(detailBase), nil
					}
				}
			}
			if flipped && ev.Instrs != 1 {
				return nil, fmt.Errorf("timing: internal: detail flip landed inside a %d-instruction batch", ev.Instrs)
			}

			if flipped {
				// The flip instruction is measured: charge it in full
				// detail, exactly as the per-instruction loop would.
				sys.cores[tid].cycle += sys.costOf(tid, inputFromBlockEvent(ev))
			} else {
				if warming {
					sys.warmBlock(tid, ev)
				}
				// Replicate the per-instruction additions: n separate
				// float adds are not n*delta.
				for i := uint64(0); i < ev.Instrs; i++ {
					sys.cores[tid].cycle += delta
				}
			}
			if len(ev.Woken) > 0 {
				sys.wake(sys.cores[tid].cycle, ev.Woken)
			}
			if flipped && s.Trace != nil {
				s.Trace.maybeSample(sys.totalInstrs(), sys.wallCycle())
			}
		}
	}

	for !m.Done() {
		tid := s.pickNext(m, sys)
		if tid < 0 {
			if m.Deadlocked() {
				return nil, exec.ErrDeadlock
			}
			break
		}
		ev, ok := m.Step(tid)
		if !ok {
			return nil, fmt.Errorf("timing: scheduled thread %d could not step", tid)
		}
		steps++
		if steps > maxSteps {
			return nil, fmt.Errorf("timing: %w", exec.ErrMaxSteps)
		}

		// Marker bookkeeping happens before charging so the start
		// marker's own instruction is measured and the end marker's is
		// not — matching how the profiler attributes the boundary
		// instruction to the following region. Raw instruction-count
		// markers (the naive baseline's boundaries) fire on the global
		// retired count instead of a PC.
		if start.IsICount() && !inDetail && steps >= start.Count {
			inDetail = true
			sys.setDetail(true)
			detailBase = sys.wallCycle()
		}
		if end.IsICount() && inDetail && steps >= end.Count {
			return sys.stats(detailBase), nil
		}
		if ev.BlockEntry {
			// Detail begins and ends without resetting core clocks: the
			// warmup phase develops the natural thread stagger of the
			// running system, and measuring wall-clock deltas over it
			// makes isolated regions tile the continuous run exactly
			// (resetting clocks would force every region to re-pay the
			// align-to-steady-state transition).
			if !start.IsStart() && ev.Block.Addr == start.PC {
				startHits++
				if !inDetail && startHits >= start.Count {
					inDetail = true
					sys.setDetail(true)
					detailBase = sys.wallCycle()
				}
			}
			if !end.IsEnd && ev.Block.Addr == end.PC {
				endHits++
				if inDetail && endHits >= end.Count {
					return sys.stats(detailBase), nil
				}
			}
		}

		// Cycles always accumulate so the min-cycle scheduler interleaves
		// threads fairly even while fast-forwarding; microarchitectural
		// state warms functionally (warmOf) without stall arithmetic, so
		// the fast-forward charge is a uniform dispatch slot regardless
		// of warmup mode and the block-batched engine can reproduce it.
		var c float64
		if inDetail {
			c = sys.cost(tid, ev)
		} else {
			if warming {
				sys.warmOf(tid, inputFromEvent(ev))
			}
			c = delta
		}
		sys.cores[tid].cycle += c
		if len(ev.Woken) > 0 {
			sys.wake(sys.cores[tid].cycle, ev.Woken)
		}
		if inDetail && s.Trace != nil {
			s.Trace.maybeSample(sys.totalInstrs(), sys.wallCycle())
		}
	}
	if !inDetail {
		if start.IsICount() {
			// Raw instruction-count boundaries are not stable across
			// thread interleavings (Section II): under a different
			// schedule the program can retire fewer instructions (e.g.
			// fewer spin iterations) and never reach the recorded
			// count. The naive baseline then measures nothing for this
			// region — one of the reasons its extrapolation degrades.
			return sys.stats(detailBase), nil
		}
		return nil, fmt.Errorf("timing: start marker %v never reached", start)
	}
	if !end.IsEnd && !end.IsICount() && endHits < end.Count {
		return nil, fmt.Errorf("timing: end marker %v never reached (%d/%d hits)", end, endHits, end.Count)
	}
	return sys.stats(detailBase), nil
}

// SimulatePeriodic implements time-based periodic sampling (the paper's
// Section VI baseline, after Carlson et al.): every period retired
// instructions, a window of detail instructions is simulated in detail;
// the remainder fast-forwards with functional warming. The returned
// statistics carry the *extrapolated* cycle count (each window's cycles
// scaled by period/detail). The whole application is still visited
// functionally, which is precisely why this methodology's speedup is
// bounded by application length (Section II).
func (s *Simulator) SimulatePeriodic(detail, period uint64) (_ *Stats, err error) {
	defer exec.Recover(&err)
	if detail == 0 || period == 0 || detail > period {
		return nil, fmt.Errorf("timing: invalid periodic sampling %d/%d", detail, period)
	}
	m := exec.NewMachine(s.Prog, s.Seed)
	sys := s.acquireSystem(m)
	sys.setDetail(true)

	var steps uint64
	var estCycles float64
	windowStart := sys.wallCycle()
	inDetail := true
	for !m.Done() {
		tid := s.pickNext(m, sys)
		if tid < 0 {
			if m.Deadlocked() {
				return nil, exec.ErrDeadlock
			}
			break
		}
		ev, ok := m.Step(tid)
		if !ok {
			return nil, fmt.Errorf("timing: scheduled thread %d could not step", tid)
		}
		steps++
		phase := steps % period
		wantDetail := phase < detail
		if wantDetail != inDetail {
			if inDetail {
				// Close the detail window and extrapolate it over the period.
				estCycles += (sys.wallCycle() - windowStart) * float64(period) / float64(detail)
			} else {
				windowStart = sys.wallCycle()
			}
			inDetail = wantDetail
			sys.setDetail(wantDetail)
		}
		c := sys.cost(tid, ev)
		sys.cores[tid].cycle += c
		if len(ev.Woken) > 0 {
			sys.wake(sys.cores[tid].cycle, ev.Woken)
		}
	}
	if inDetail {
		estCycles += (sys.wallCycle() - windowStart) * float64(period) / float64(detail)
	}
	st := sys.stats(0)
	st.Cycles = estCycles
	return st, nil
}

// pickNext returns the runnable thread whose core has the smallest cycle
// count (ties broken by thread ID), or -1 if none can run. During
// fast-forward all cycles are equal, so this degrades to round-robin-like
// ordering that still interleaves threads fairly.
func (s *Simulator) pickNext(m *exec.Machine, sys *system) int {
	best := -1
	var bestCycle float64
	for tid, t := range m.Threads {
		if t.State != exec.StateRunning {
			continue
		}
		c := sys.cores[tid].cycle
		if best == -1 || c < bestCycle {
			best, bestCycle = tid, c
		}
	}
	return best
}

// batchAllowance returns how many instructions thread tid may retire
// before the min-cycle scheduler would pick a different thread, assuming
// each instruction costs exactly delta cycles (the fast-forward charge).
// It replays the same float additions the per-instruction loop performs,
// so the resulting scheduling sequence is bit-identical: tid stays the
// pick while its cycle is below the other threads' minimum, or equal to
// it with a lower thread ID (pickNext's tie rule).
func (s *Simulator) batchAllowance(m *exec.Machine, sys *system, tid int, delta float64) uint64 {
	oc, oj := 0.0, -1
	for j, t := range m.Threads {
		if j == tid || t.State != exec.StateRunning {
			continue
		}
		if c := sys.cores[j].cycle; oj == -1 || c < oc {
			oc, oj = c, j
		}
	}
	if oj == -1 {
		return ^uint64(0) // only runnable thread: no scheduling constraint
	}
	cy := sys.cores[tid].cycle
	var n uint64
	for cy < oc || (cy == oc && tid < oj) {
		cy += delta
		n++
		if n == 1<<20 {
			break // split enormous leads into several batches
		}
	}
	return n
}

// SimulateConstrained replays a pinball under the timing model with the
// recorded thread interleaving enforced (constrained simulation). Shared
// lines may not be touched out of recorded order, which inserts the
// artificial stalls the paper warns about (Section V-A1): results can
// diverge badly from unconstrained behaviour, especially for
// low-synchronization applications.
func (s *Simulator) SimulateConstrained(pb *pinball.Pinball) (_ *Stats, err error) {
	defer exec.Recover(&err)
	if err := pb.Verify(); err != nil {
		return nil, err
	}
	m := exec.NewMachine(s.Prog, 0)
	m.Restore(pb.Start)
	replay := exec.NewReplayOS(pb.Syscalls)
	m.OS = replay
	sys := s.acquireSystem(m)
	sys.constrained = true
	inDetail := pb.WarmupSteps == 0
	sys.setDetail(inDetail)

	var steps uint64
	var base float64
	for _, e := range pb.Schedule {
		for i := uint32(0); i < e.N; i++ {
			ev, ok := m.Step(e.Tid)
			if !ok {
				return nil, fmt.Errorf("timing: constrained replay diverged: thread %d is %s",
					e.Tid, m.Threads[e.Tid].State)
			}
			steps++
			if !inDetail && steps > pb.WarmupSteps {
				inDetail = true
				sys.setDetail(true)
				base = sys.wallCycle()
			}
			sys.constrainedOrderStall(e.Tid, ev)
			c := sys.cost(e.Tid, ev)
			sys.cores[e.Tid].cycle += c
			if len(ev.Woken) > 0 {
				sys.wake(sys.cores[e.Tid].cycle, ev.Woken)
			}
		}
	}
	if replay.Diverged {
		return nil, fmt.Errorf("timing: constrained replay exhausted the syscall injection log")
	}
	return sys.stats(base), nil
}
