package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"looppoint/internal/core"
)

// storedDigests holds, per size and workload, the selection digest of
// the reference configuration (core.DefaultConfig, seed 42). Every run
// recomputes it, so any change to region boundaries, multipliers or
// predicted cycles fails the run.
//
//go:embed digests.json
var storedDigestsJSON []byte

func storedDigest(size, workload string) (string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(storedDigestsJSON, &all); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	d, ok := all[size][workload]
	if !ok {
		return "", fmt.Errorf("digests.json has no digest for %s at size %s", workload, size)
	}
	return d, nil
}

// selectionDigest hashes what a selection decides: each looppoint's
// (PC, count) start and end boundaries and its multiplier bits, plus the
// bits of the predicted cycle count.
func selectionDigest(sel *core.Selection, cycles float64) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	put(uint64(len(sel.Points)))
	for _, lp := range sel.Points {
		r := lp.Region
		put(r.Start.PC)
		put(r.Start.Count)
		put(flag(r.Start.IsEnd))
		put(r.End.PC)
		put(r.End.Count)
		put(flag(r.End.IsEnd))
		put(math.Float64bits(lp.Multiplier))
	}
	put(math.Float64bits(cycles))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// tally counts operations (jobs, repetitions and correctness checks)
// and the ones that failed.
type tally struct {
	attempted, failed int
	failures          []string
}

// op records one operation; a false ok records a failure described by
// the format arguments. It returns ok.
func (t *tally) op(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// checkSelection verifies the methodology's invariants from outside the
// program: the looppoint weights sum to 1 and the profiled regions tile
// the filtered instruction total.
func checkSelection(t *tally, what string, sel *core.Selection) {
	var w float64
	for _, lp := range sel.Points {
		w += lp.Weight
	}
	t.op(math.Abs(w-1) <= 1e-9, "%s: looppoint weights sum to %.12f, want 1", what, w)
	prof := sel.Analysis.Profile
	var f uint64
	for _, r := range prof.Regions {
		f += r.Filtered
	}
	t.op(f == prof.TotalFiltered, "%s: regions cover %d filtered instructions, profile total %d", what, f, prof.TotalFiltered)
}
