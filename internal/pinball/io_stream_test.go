package pinball

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"looppoint/internal/artifact"
	"looppoint/internal/bbv"
	"looppoint/internal/exec"
)

// The streaming reference loader: reads incrementally from any io.Reader
// and grows slices cautiously, so a corrupted-but-plausible length
// prefix fails at the real end of input instead of committing gigabytes
// up front. It is the original decoder, kept as the test oracle for
// Decode (io.go): both must accept exactly the same bytes and classify
// failures identically.

type reader struct {
	r   *bufio.Reader
	sum uint64
	off int64 // bytes consumed so far, for truncation diagnostics
	err error
}

func (r *reader) raw(b []byte) {
	if r.err != nil {
		return
	}
	n, err := io.ReadFull(r.r, b)
	r.off += int64(n)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			r.err = fmt.Errorf("%w at byte offset %d", artifact.ErrTruncated, r.off)
		} else {
			r.err = err
		}
		return
	}
	r.sum = artifact.Update(r.sum, b)
}

func (r *reader) u64() uint64 {
	var buf [8]byte
	r.raw(buf[:])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(buf[:])
}

func (r *reader) i64() int64  { return int64(r.u64()) }
func (r *reader) u32() uint32 { return uint32(r.u64()) }

func (r *reader) str() string {
	n := r.u64()
	if r.err != nil {
		return ""
	}
	if n > maxStringLen {
		r.err = fmt.Errorf("implausible string length %d at byte offset %d: %w", n, r.off, artifact.ErrCorrupt)
		return ""
	}
	buf := make([]byte, n)
	r.raw(buf)
	if r.err != nil {
		return ""
	}
	return string(buf)
}

// ReadFrom deserializes a pinball and verifies its snapshot checksum.
// Failures wrap the artifact sentinels: ErrTruncated (with byte offset)
// for early EOF, ErrCorrupt for structural or checksum damage,
// ErrVersion for format skew.
func ReadFrom(src io.Reader) (*Pinball, error) {
	r := &reader{r: bufio.NewReader(src), sum: artifact.FNVOffset}
	head := make([]byte, len(magic))
	if n, err := io.ReadFull(r.r, head); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("pinball: reading header: %w at byte offset %d", artifact.ErrTruncated, n)
		}
		return nil, fmt.Errorf("pinball: reading header: %w", err)
	}
	r.off = int64(len(magic))
	if string(head) != magic {
		return nil, fmt.Errorf("pinball: bad magic %q: %w", head, artifact.ErrCorrupt)
	}
	if v := r.u32(); r.err == nil && v != version {
		return nil, fmt.Errorf("pinball: version %d (want %d): %w", v, version, artifact.ErrVersion)
	}
	pb := &Pinball{}
	pb.Name = r.str()
	pb.NumThreads = int(r.u64())
	pb.MemChecksum = r.u64()
	pb.FinalChecksum = r.u64()
	pb.WarmupSteps = r.u64()
	pb.StartHitsAtSnapshot = r.u64()
	pb.EndHitsAtSnapshot = r.u64()
	pb.Region.Start = readMarker(r)
	pb.Region.End = readMarker(r)
	pb.Region.WarmupStart = readMarker(r)

	s := &exec.Snapshot{}
	s.Steps = r.u64()
	memLen := r.u64()
	if r.err == nil && memLen > maxMemWords {
		return nil, fmt.Errorf("pinball: implausible memory size %d: %w", memLen, artifact.ErrCorrupt)
	}
	// Grow incrementally rather than trusting the declared length: a
	// corrupted-but-plausible count must fail at the real end of input,
	// not commit gigabytes first.
	s.Mem = make([]uint64, 0, min(memLen, uint64(1<<16)))
	for i := uint64(0); i < memLen && r.err == nil; i++ {
		s.Mem = append(s.Mem, r.u64())
	}
	nThreads := r.u64()
	if r.err == nil && nThreads > maxThreads {
		return nil, fmt.Errorf("pinball: implausible thread count %d: %w", nThreads, artifact.ErrCorrupt)
	}
	for i := uint64(0); i < nThreads && r.err == nil; i++ {
		var t exec.ThreadSnapshot
		for j := range t.R {
			t.R[j] = r.i64()
		}
		for j := range t.F {
			t.F[j] = math.Float64frombits(r.u64())
		}
		t.State = exec.ThreadState(r.u64())
		t.Cur = readFrame(r)
		stackLen := r.u64()
		if r.err == nil && stackLen > maxStackDepth {
			return nil, fmt.Errorf("pinball: implausible stack depth %d: %w", stackLen, artifact.ErrCorrupt)
		}
		for j := uint64(0); j < stackLen && r.err == nil; j++ {
			t.Stack = append(t.Stack, readFrame(r))
		}
		t.ICount = r.u64()
		t.Futex = r.u64()
		s.Threads = append(s.Threads, t)
	}
	nQueues := r.u64()
	if r.err == nil && nQueues > maxThreads {
		return nil, fmt.Errorf("pinball: implausible futex queue count %d: %w", nQueues, artifact.ErrCorrupt)
	}
	for i := uint64(0); i < nQueues && r.err == nil; i++ {
		q := exec.FutexQueue{Addr: r.u64()}
		nWait := r.u64()
		if r.err == nil && nWait > maxThreads {
			return nil, fmt.Errorf("pinball: implausible futex waiter count %d: %w", nWait, artifact.ErrCorrupt)
		}
		for j := uint64(0); j < nWait && r.err == nil; j++ {
			q.Tids = append(q.Tids, int(r.u64()))
		}
		s.Futexes = append(s.Futexes, q)
	}
	nOS := r.u64()
	if r.err == nil && nOS > maxOSWords {
		return nil, fmt.Errorf("pinball: implausible OS state length %d: %w", nOS, artifact.ErrCorrupt)
	}
	for i := uint64(0); i < nOS && r.err == nil; i++ {
		s.OS = append(s.OS, r.u64())
	}
	pb.Start = s

	nLogs := r.u64()
	if r.err == nil && nLogs > maxLogs {
		return nil, fmt.Errorf("pinball: implausible syscall log count %d: %w", nLogs, artifact.ErrCorrupt)
	}
	for i := uint64(0); i < nLogs && r.err == nil; i++ {
		n := r.u64()
		if r.err == nil && n > maxLogLen {
			return nil, fmt.Errorf("pinball: implausible syscall log length %d: %w", n, artifact.ErrCorrupt)
		}
		log := make([]int64, 0, min(n, uint64(1<<16)))
		for j := uint64(0); j < n && r.err == nil; j++ {
			log = append(log, r.i64())
		}
		pb.Syscalls = append(pb.Syscalls, log)
	}

	nSched := r.u64()
	if r.err == nil && nSched > maxSchedule {
		return nil, fmt.Errorf("pinball: implausible schedule length %d: %w", nSched, artifact.ErrCorrupt)
	}
	for i := uint64(0); i < nSched && r.err == nil; i++ {
		tid := int(r.u64())
		n := uint32(r.u64())
		pb.Schedule = append(pb.Schedule, exec.ScheduleEntry{Tid: tid, N: n})
	}
	if r.err != nil {
		return nil, fmt.Errorf("pinball: decode: %w", r.err)
	}
	// Verify the trailing whole-file hash (read raw, not through raw()).
	want := r.sum
	var tail [8]byte
	if n, err := io.ReadFull(r.r, tail[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("pinball: reading integrity hash: %w at byte offset %d", artifact.ErrTruncated, r.off+int64(n))
		}
		return nil, fmt.Errorf("pinball: reading integrity hash: %w", err)
	}
	if got := binary.LittleEndian.Uint64(tail[:]); got != want {
		return nil, fmt.Errorf("pinball: file integrity hash mismatch (file %#x, computed %#x): %w", got, want, artifact.ErrCorrupt)
	}
	if err := pb.Verify(); err != nil {
		return nil, err
	}
	return pb, nil
}

func readMarker(r *reader) bbv.Marker {
	m := bbv.Marker{PC: r.u64(), Count: r.u64()}
	m.IsEnd = r.u64() == 1
	return m
}

func readFrame(r *reader) exec.FrameRef {
	return exec.FrameRef{
		Image:   int(r.u64()),
		Routine: int(r.u64()),
		Block:   int(r.u64()),
		Index:   int(r.u64()),
	}
}
