package timing

import (
	"looppoint/internal/bbv"
	"looppoint/internal/exec"
	"looppoint/internal/pinball"
)

// The per-instruction reference engine: the same simulations with the
// fast-forward stepping one instruction at a time instead of in block
// batches. Statistics are bit-identical to the production methods. Only
// tests call these, as the oracle the block-batched fast-forward is
// checked against (here and in core's end-to-end identity suite).

// SimulateRegionReference is SimulateRegion on the reference engine.
func (s *Simulator) SimulateRegionReference(start, end bbv.Marker, warm WarmupMode) (*Stats, error) {
	return s.runMarked(exec.NewMachine(s.Prog, s.Seed), start, end, 0, 0, warm, false)
}

// SimulateCheckpointReference is SimulateCheckpoint on the reference
// engine.
func (s *Simulator) SimulateCheckpointReference(pb *pinball.Pinball) (*Stats, error) {
	return s.simulateCheckpoint(pb, false)
}
