package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's host is a few vCPUs of a shared machine, and its speed
// drifts with what the other tenants run: within six minutes, ten runs
// of the same code measured xz-sim's full simulation between 0.22 s and
// 0.39 s, with its set-up time and sampled run slowing alike and under
// 1% of CPU time stolen. No choice of repetitions inside a 30 s run
// averages that out. So every run also times a fixed calibration
// workload, in batches between repetitions that add up to a tenth of the
// time the run has taken so far, and reports each end-to-end time scaled
// to a host on which one calibration round takes referenceRoundSeconds:
//
//	reported = measured × referenceRoundSeconds / (median calibration round)
//
// The calibration shares no code with the repository, so a change to the
// program moves the reported times by the same share as the measured ones.
// The log prints the measured times and the scale factor beside them.
const (
	calibrationBatch      = 200 // rounds per batch, about 60 ms
	calibrationSamples    = 9
	referenceRoundSeconds = 300e-6
)

// hostClock times the calibration batches of one run.
type hostClock struct {
	// table is the calibration's 4 MiB, beyond L2. It is mapped outside
	// the Go heap, so it neither moves the garbage collector's pacing nor
	// lands at a different place in the heap each batch: peak RSS carries
	// it as a constant 4 MiB.
	table  []uint64
	mem    []byte        // the mapping behind table
	rounds []float64     // seconds per round, one per batch
	spent  time.Duration // in batches so far
}

func newHostClock() (*hostClock, error) {
	const n = 1 << 19
	mem, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the calibration table: %w", err)
	}
	h := &hostClock{table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), n), mem: mem}
	x := uint64(0x2545F4914F6CDD1D)
	for i := range h.table {
		x = xorshift(x)
		h.table[i] = x
	}
	return h, nil
}

// keepUp runs batches until they add up to a tenth of elapsed. The host's
// speed wanders from second to second, so the calibration must sample as
// much of the run as it can afford, not a few instants of it.
func (h *hostClock) keepUp(elapsed time.Duration) {
	for h.spent < elapsed/10 {
		h.once()
	}
}

// close unmaps the table.
func (h *hostClock) close() error { return syscall.Munmap(h.mem) }

// once times one batch of calibration rounds, from a collected heap
// like a repetition.
func (h *hostClock) once() {
	runtime.GC()
	var acc uint64
	start := time.Now()
	for i := 0; i < calibrationBatch; i++ {
		acc += calibrationRound(h.table, uint64(i))
	}
	took := time.Since(start)
	h.spent += took
	h.rounds = append(h.rounds, took.Seconds()/calibrationBatch)
	calibrationSink = acc
}

// scale tops the batches up to calibrationSamples and returns the factor
// that maps measured seconds to seconds on the reference host.
func (h *hostClock) scale() float64 {
	for len(h.rounds) < calibrationSamples {
		h.once()
	}
	return referenceRoundSeconds / median(h.rounds)
}

// calibrationSink keeps the rounds' results live.
var calibrationSink uint64

// calibrationRound is a fixed piece of work. Like the program's
// interpreters and simulators, it mixes branchy integer code, loads
// from a table larger than the L2 cache, map updates and small
// allocations.
func calibrationRound(table []uint64, seed uint64) uint64 {
	counts := make(map[uint64]uint32, 64)
	x := seed*0x9E3779B97F4A7C15 + 1
	var acc uint64
	for i := 0; i < 8000; i++ {
		x = xorshift(x)
		v := table[x&uint64(len(table)-1)]
		switch v & 3 {
		case 0:
			acc += v
		case 1:
			acc ^= v >> 3
		case 2:
			counts[v&1023]++
		default:
			acc = acc*31 + uint64(len(counts))
		}
	}
	return acc + uint64(len(counts))
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
