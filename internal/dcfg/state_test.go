package dcfg

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestGraphStateRoundTrip pins the serialized graph round-trip exact:
// State → JSON → RestoreGraph must deep-equal the original, including
// Node.Out/In insertion order and the unexported edge map.
func TestGraphStateRoundTrip(t *testing.T) {
	for name, w := range shardRecordings(t) {
		t.Run(name, func(t *testing.T) {
			g := serialGraph(t, w.prog, w.pb)
			data, err := json.Marshal(g.State())
			if err != nil {
				t.Fatal(err)
			}
			var st GraphState
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatal(err)
			}
			got, err := RestoreGraph(w.prog, &st)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, g) {
				t.Fatal("restored graph differs from original")
			}
		})
	}
}

// TestCarryStateRoundTripMidMerge interrupts a shard merge at every
// boundary: the partial graph and carry take a JSON round-trip, the
// remaining shards merge into both the original and the restored pair,
// and the final graphs must deep-equal each other and the serial one.
func TestCarryStateRoundTripMidMerge(t *testing.T) {
	for name, w := range shardRecordings(t) {
		t.Run(name, func(t *testing.T) {
			serial := serialGraph(t, w.prog, w.pb)
			total := w.pb.Schedule.Steps()
			every := total / 4
			if every == 0 {
				t.Skip("recording too short")
			}
			cks, err := w.pb.Checkpoints(w.prog, every)
			if err != nil {
				t.Fatal(err)
			}
			width := func(k int) uint64 {
				if k < len(cks)-1 {
					return cks[k+1].Step - cks[k].Step
				}
				return total - cks[k].Step
			}
			shards := make([]*ShardBuilder, len(cks))
			for k, ck := range cks {
				sb := NewShardBuilder(w.prog.NumThreads())
				if _, err := w.pb.ReplayWindow(w.prog, ck, width(k), sb); err != nil {
					t.Fatalf("window %d: %v", k, err)
				}
				shards[k] = sb
			}
			for cut := 1; cut < len(shards); cut++ {
				g1 := NewGraph(w.prog)
				carry1 := StartCarry(w.prog.NumThreads())
				for k := 0; k < cut; k++ {
					if carry1, err = shards[k].MergeInto(g1, carry1); err != nil {
						t.Fatal(err)
					}
				}
				blob, err := json.Marshal(struct {
					G *GraphState
					C CarryState
				}{g1.State(), carry1.State()})
				if err != nil {
					t.Fatal(err)
				}
				var dec struct {
					G *GraphState
					C CarryState
				}
				if err := json.Unmarshal(blob, &dec); err != nil {
					t.Fatal(err)
				}
				g2, err := RestoreGraph(w.prog, dec.G)
				if err != nil {
					t.Fatal(err)
				}
				carry2, err := RestoreCarry(w.prog, dec.C)
				if err != nil {
					t.Fatal(err)
				}
				for k := cut; k < len(shards); k++ {
					if carry1, err = shards[k].MergeInto(g1, carry1); err != nil {
						t.Fatal(err)
					}
					if carry2, err = shards[k].MergeInto(g2, carry2); err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(g2, g1) {
					t.Fatalf("cut=%d: resumed merge differs from uninterrupted merge", cut)
				}
				if !reflect.DeepEqual(g1, serial) {
					t.Fatalf("cut=%d: merged graph differs from serial graph", cut)
				}
			}
		})
	}
}

// TestStateRestoreValidation feeds hostile states and requires typed
// errors, never panics or silent acceptance.
func TestStateRestoreValidation(t *testing.T) {
	for _, w := range shardRecordings(t) {
		nblocks := len(w.prog.Blocks())
		bad := []GraphState{
			{Nodes: []NodeState{{Global: -1}}},
			{Nodes: []NodeState{{Global: nblocks}}},
			{Nodes: []NodeState{{Global: 0, Out: []int{0}}}},
			{Edges: []EdgeState{{From: 0, To: nblocks, Kind: 0}}},
			{Edges: []EdgeState{{From: 0, To: 0, Kind: 9}}},
			{Nodes: []NodeState{{Global: 0}, {Global: 0}}},
			{Edges: []EdgeState{{From: 0, To: 0}, {From: 0, To: 0}}},
			// Out/In list an edge the node does not own, and neither
			// endpoint has a node.
			{
				Nodes: []NodeState{{Global: 0, Out: []int{0}, In: []int{0}}},
				Edges: []EdgeState{{From: nblocks - 1, To: nblocks - 2}},
			},
			// In lists an edge whose target is another node.
			{
				Nodes: []NodeState{{Global: 0, Out: []int{0}, In: []int{0}}, {Global: 1}},
				Edges: []EdgeState{{From: 0, To: 1}},
			},
			// An edge with no node at either end, listed nowhere.
			{Edges: []EdgeState{{From: 0, To: 1}}},
			// Endpoints exist but the edge is missing from In.
			{
				Nodes: []NodeState{{Global: 0, Out: []int{0}}, {Global: 1}},
				Edges: []EdgeState{{From: 0, To: 1}},
			},
			// Listed twice in Out.
			{
				Nodes: []NodeState{{Global: 0, Out: []int{0, 0}, In: []int{0}}},
				Edges: []EdgeState{{From: 0, To: 0}},
			},
		}
		for i, st := range bad {
			if _, err := RestoreGraph(w.prog, &st); err == nil {
				t.Fatalf("hostile graph state %d accepted", i)
			}
		}
		// The well-formed neighbour of the cases above restores.
		good := GraphState{
			Nodes: []NodeState{{Global: 0, Out: []int{0}}, {Global: 1, In: []int{0}}},
			Edges: []EdgeState{{From: 0, To: 1, Count: 3}},
		}
		if _, err := RestoreGraph(w.prog, &good); err != nil {
			t.Fatalf("consistent graph state rejected: %v", err)
		}
		badCarry := []CarryState{
			{Cur: []int{0}},
			{Cur: []int{nblocks}, Stk: [][]int{nil}},
			{Cur: []int{-2}, Stk: [][]int{nil}},
			{Cur: []int{0}, Stk: [][]int{{nblocks + 4}}},
		}
		for i, st := range badCarry {
			if _, err := RestoreCarry(w.prog, st); err == nil {
				t.Fatalf("hostile carry state %d accepted", i)
			}
		}
		break
	}
}
