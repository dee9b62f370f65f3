package timing

import (
	"reflect"
	"testing"

	"looppoint/internal/bbv"
	"looppoint/internal/dcfg"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
)

// TestSimulateRegionFastSlowIdentical is the timing half of the
// acceptance criterion: the block-batched fast-forward and the
// per-instruction reference engine must produce bit-identical statistics
// for marker-delimited region simulations, across wait policies, warmup
// modes, and marker kinds (PC markers and raw icount markers).
func TestSimulateRegionFastSlowIdentical(t *testing.T) {
	for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
		policy := policy
		name := "passive"
		if policy == omp.Active {
			name = "active"
		}
		t.Run(name, func(t *testing.T) {
			p := testprog.Phased(4, 8, 120, policy)
			pb, err := pinball.Record(p, 5, 512)
			if err != nil {
				t.Fatal(err)
			}
			db := dcfg.NewBuilder(p, 4)
			if _, err := pb.Replay(p, db); err != nil {
				t.Fatal(err)
			}
			g := db.Graph()
			var addrs []uint64
			for _, h := range g.StableMarkers(g.FindLoops(), 300) {
				addrs = append(addrs, h.Addr)
			}
			col := bbv.NewCollector(p, addrs, 4*1200)
			if _, err := pb.Replay(p, col); err != nil {
				t.Fatal(err)
			}
			prof := col.Finish()
			if len(prof.Regions) < 3 {
				t.Fatalf("only %d regions", len(prof.Regions))
			}

			sim := func(slow bool, start, end bbv.Marker, warm WarmupMode) *Stats {
				s, err := New(Gainestown(4), p)
				if err != nil {
					t.Fatal(err)
				}
				simulate := s.SimulateRegion
				if slow {
					simulate = s.SimulateRegionReference
				}
				st, err := simulate(start, end, warm)
				if err != nil {
					t.Fatalf("SimulateRegion(slow=%v, %v..%v): %v", slow, start, end, err)
				}
				return st
			}

			for _, warm := range []WarmupMode{WarmupFunctional, WarmupNone} {
				for i, reg := range prof.Regions {
					if reg.Start.IsStart() || reg.Start.IsEnd {
						continue // fully detailed from the start: no fast-forward
					}
					fast := sim(false, reg.Start, reg.End, warm)
					slow := sim(true, reg.Start, reg.End, warm)
					if !reflect.DeepEqual(fast, slow) {
						t.Errorf("region %d (%v..%v, warmup %v): stats differ\nfast: %+v\nslow: %+v",
							i, reg.Start, reg.End, warm, fast, slow)
					}
				}
			}

			// Raw icount boundaries (the naive baseline's markers) cross
			// mid-batch without a break PC; the budget capping must land
			// the flip on the exact instruction.
			mid := prof.TotalICount / 2
			end := mid + prof.TotalICount/4
			fast := sim(false, bbv.Marker{Count: mid}, bbv.Marker{Count: end}, WarmupFunctional)
			slow := sim(true, bbv.Marker{Count: mid}, bbv.Marker{Count: end}, WarmupFunctional)
			if !reflect.DeepEqual(fast, slow) {
				t.Errorf("icount region: stats differ\nfast: %+v\nslow: %+v", fast, slow)
			}
		})
	}
}

// TestSimulateCheckpointFastSlowIdentical pins the checkpoint path: a
// region pinball simulated from its snapshot must produce bit-identical
// statistics on both engines (rebased marker counts, warmup prefix, and
// syscall-injection fallback included).
func TestSimulateCheckpointFastSlowIdentical(t *testing.T) {
	p := testprog.Phased(4, 10, 150, omp.Passive)
	pb, err := pinball.Record(p, 5, 512)
	if err != nil {
		t.Fatal(err)
	}
	db := dcfg.NewBuilder(p, 4)
	if _, err := pb.Replay(p, db); err != nil {
		t.Fatal(err)
	}
	g := db.Graph()
	var addrs []uint64
	for _, h := range g.StableMarkers(g.FindLoops(), 300) {
		addrs = append(addrs, h.Addr)
	}
	col := bbv.NewCollector(p, addrs, 4*1500)
	if _, err := pb.Replay(p, col); err != nil {
		t.Fatal(err)
	}
	prof := col.Finish()
	if len(prof.Regions) < 4 {
		t.Fatalf("only %d regions", len(prof.Regions))
	}

	reg, warm := prof.Regions[2], prof.Regions[1]
	rps, err := pb.ExtractRegions(p, []pinball.RegionSpec{{
		Name:            "r2",
		WarmupStartStep: warm.StartICount,
		StartStep:       reg.StartICount,
		EndStep:         reg.EndICount,
		Start:           reg.Start,
		End:             reg.End,
	}})
	if err != nil {
		t.Fatal(err)
	}

	run := func(slow bool) *Stats {
		s, err := New(Gainestown(4), p)
		if err != nil {
			t.Fatal(err)
		}
		simulate := s.SimulateCheckpoint
		if slow {
			simulate = s.SimulateCheckpointReference
		}
		st, err := simulate(rps[0])
		if err != nil {
			t.Fatalf("SimulateCheckpoint(slow=%v): %v", slow, err)
		}
		return st
	}
	fast, slow := run(false), run(true)
	if !reflect.DeepEqual(fast, slow) {
		t.Errorf("checkpoint stats differ\nfast: %+v\nslow: %+v", fast, slow)
	}
}
