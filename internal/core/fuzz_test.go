package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"testing"

	"looppoint/internal/artifact"
	"looppoint/internal/dcfg"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

// resealProgress returns a copy of data with the LOOPPROG trailing FNV
// recomputed over the mutated payload, so fuzzed inputs reach the
// section parser, the checkpoint decoder and the JSON state instead of
// dying at the integrity hash. (The fuzz engine owns data; it must not
// be modified in place.)
func resealProgress(data []byte) []byte {
	data = append([]byte(nil), data...)
	if len(data) < len(progMagic)+8 {
		return data
	}
	end := len(data) - 8
	binary.LittleEndian.PutUint64(data[end:], artifact.Update(artifact.FNVOffset, data[len(progMagic):end]))
	return data
}

// graphConsistent checks what a Builder guarantees of every graph: each
// edge joins two of the graph's nodes and sits in its source's Out and
// its target's In, and every adjacency entry is an edge of its node.
func graphConsistent(g *dcfg.Graph) error {
	for gi, n := range g.Nodes {
		for _, e := range n.Out {
			if e.From != gi {
				return fmt.Errorf("node %d: Out holds edge %d -> %d", gi, e.From, e.To)
			}
		}
		for _, e := range n.In {
			if e.To != gi {
				return fmt.Errorf("node %d: In holds edge %d -> %d", gi, e.From, e.To)
			}
		}
	}
	holds := func(es []*dcfg.Edge, e *dcfg.Edge) bool {
		for _, x := range es {
			if x == e {
				return true
			}
		}
		return false
	}
	for _, e := range g.Edges() {
		from, to := g.Nodes[e.From], g.Nodes[e.To]
		if from == nil || to == nil || !holds(from.Out, e) || !holds(to.In, e) {
			return fmt.Errorf("edge %d -> %d is not in its endpoints' adjacency", e.From, e.To)
		}
	}
	return nil
}

// FuzzDecodeProgress hardens the durable-progress load path with
// resealed inputs: decodeProgress, then the DCFG graph and merge-carry
// restore and loop finding the recovery ladder runs on a phase-0 rung.
// Nothing may panic; an accepted envelope must re-encode to itself, and
// an accepted graph or carry must survive a State/restore round trip
// unchanged. Inputs are restored against the program buildProgressEnvelope
// records. Seed corpus: testdata/fuzz/FuzzDecodeProgress.
func FuzzDecodeProgress(f *testing.F) {
	p := testprog.Phased(2, 3, 30, omp.Passive)
	f.Add(buildProgressEnvelope(f))
	// A phase-1 rung (decider and stitcher state) from a real durable run.
	cfg := durableConfig(f.TempDir())
	if _, err := analyzeDurable(p, cfg); err != nil {
		f.Fatal(err)
	}
	if cands := progressCandidates(progressBase(cfg.ProgressDir, p, &cfg)); len(cands) > 0 {
		data, err := os.ReadFile(cands[0])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, st, err := decodeProgress(resealProgress(data))
		if err != nil {
			return
		}
		again, err := encodeProgress(ck, st)
		if err != nil {
			t.Fatalf("accepted envelope does not re-encode: %v", err)
		}
		ck2, st2, err := decodeProgress(again)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if !reflect.DeepEqual(ck2, ck) || !reflect.DeepEqual(st2, st) {
			t.Fatal("encode/decode round trip changed the progress state")
		}
		if st.Graph != nil {
			if g, err := dcfg.RestoreGraph(p, st.Graph); err == nil {
				if err := graphConsistent(g); err != nil {
					t.Fatalf("restored graph is inconsistent: %v", err)
				}
				g.FindLoops()
				gs := g.State()
				g2, err := dcfg.RestoreGraph(p, gs)
				if err != nil {
					t.Fatalf("a restored graph's own state is rejected: %v", err)
				}
				if !reflect.DeepEqual(g2, g) || !reflect.DeepEqual(g2.State(), gs) {
					t.Fatal("graph state round trip changed the graph")
				}
			}
		}
		if st.Carry != nil {
			if c, err := dcfg.RestoreCarry(p, *st.Carry); err == nil && !reflect.DeepEqual(c.State(), *st.Carry) {
				t.Fatal("carry state round trip changed the carry")
			}
		}
	})
}
