package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"time"

	"looppoint/internal/artifact"
	"looppoint/internal/faults"
	"looppoint/internal/timing"
)

// Durable region-simulation progress. With Config.ProgressDir set, the
// fault-tolerant sweep journals every completed region's statistics as
// one checksummed JSONL line (the shared artifact envelope), fsynced
// before the result is used. A killed sweep restarted over the same
// selection and simulator configuration replays nothing it already
// finished: recovered regions are served from the journal — including
// their recorded host time, so speedup accounting stays deterministic —
// and only the remainder is simulated. Torn final lines (SIGKILL
// mid-write) are truncated away on open; lines that fail their checksum
// or belong to a different selection/configuration are skipped. The
// journal shares the "core.progress.save"/"core.progress.load" fault
// sites with the analysis epochs: saves are best-effort, loads fall
// back to simulating from scratch.

// simRecord is one journaled region result. The looppoint itself is not
// serialized — the restart's own selection provides it (the fingerprint
// pins both selections identical); only the simulated statistics and
// host time carry over.
type simRecord struct {
	Fp         string        `json:"fp"`
	Region     int           `json:"region"`
	Stats      *timing.Stats `json:"stats"`
	HostTimeNS int64         `json:"host_time_ns"`
}

// simFingerprint pins everything that determines a region's simulated
// statistics: the program, the configuration through the simulation
// stage, the simulator configuration, and the exact region boundaries of
// every selected looppoint.
func simFingerprint(sel *Selection, simCfg timing.Config) string {
	a := sel.Analysis
	bounds := make([][3]uint64, len(sel.Points))
	for i, lp := range sel.Points {
		bounds[i] = [3]uint64{uint64(lp.Region.Index), lp.Region.StartICount, lp.Region.EndICount}
	}
	return Fingerprint(StageSimulation, progressVersion, a.Prog.Name, a.Prog.NumThreads(),
		a.Config, simCfg, bounds)
}

// simProgress is the open journal for one sweep. All methods are safe
// for concurrent use (the sweep fans out) and for nil receivers — a nil
// journal records and recovers nothing.
type simProgress struct {
	fp        string
	ps        *ProgressStats
	recovered map[int]RegionResult

	mu   sync.Mutex
	f    *os.File
	dead bool
}

// openSimProgress opens (creating if needed) the sweep's journal and
// loads every recoverable region result. Any failure to open or read
// degrades to an empty journal — durable progress never wedges a sweep.
func openSimProgress(sel *Selection, simCfg timing.Config) *simProgress {
	a := sel.Analysis
	cfg := a.Config
	if cfg.ProgressDir == "" || a.Prog == nil {
		return nil
	}
	if err := os.MkdirAll(cfg.ProgressDir, 0o755); err != nil {
		return nil
	}
	sp := &simProgress{
		fp:        simFingerprint(sel, simCfg),
		ps:        cfg.Progress,
		recovered: make(map[int]RegionResult),
	}
	path := progressBase(cfg.ProgressDir, a.Prog, &cfg) + ".sim.progress"
	sp.load(path, sel)
	if err := artifact.RepairTornTail(path); err == nil {
		if f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
			sp.f = f
		}
	}
	if sp.f == nil {
		sp.dead = true
	}
	return sp
}

// load reads the journal's valid lines, keeping those that match this
// sweep's fingerprint. Injection site "core.progress.load" can fail the
// read (no recovery, simulate everything) or corrupt the bytes after
// they leave disk (corrupted lines fail their checksums and drop).
func (sp *simProgress) load(path string, sel *Selection) {
	if err := faults.Check("core.progress.load"); err != nil {
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	faults.CorruptBytes("core.progress.load", data)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 16<<20)
	var stepsSaved uint64
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		recBytes, ok := artifact.VerifyLine(line)
		if !ok {
			continue
		}
		var rec simRecord
		if json.Unmarshal(recBytes, &rec) != nil || rec.Fp != sp.fp || rec.Stats == nil {
			continue
		}
		if rec.Region < 0 || rec.Region >= len(sel.Points) {
			continue
		}
		if _, dup := sp.recovered[rec.Region]; dup {
			continue
		}
		lp := sel.Points[rec.Region]
		sp.recovered[rec.Region] = RegionResult{
			Point:    lp,
			Stats:    rec.Stats,
			HostTime: time.Duration(rec.HostTimeNS),
		}
		stepsSaved += lp.Region.UnfilteredLen()
	}
	if len(sp.recovered) > 0 {
		sp.ps.countRecovery(stepsSaved)
	}
}

// lookup serves a recovered region, if the journal has it.
func (sp *simProgress) lookup(i int) (RegionResult, bool) {
	if sp == nil {
		return RegionResult{}, false
	}
	r, ok := sp.recovered[i]
	return r, ok
}

// record journals one completed region durably (checksummed line +
// fsync). Best-effort: failures — including an injected Transient at
// "core.progress.save" — are counted and swallowed; an injected Corrupt
// flips bytes in the line, which the load-side checksum catches.
func (sp *simProgress) record(i int, res RegionResult) {
	if sp == nil {
		return
	}
	rec, err := json.Marshal(simRecord{
		Fp: sp.fp, Region: i, Stats: res.Stats, HostTimeNS: int64(res.HostTime),
	})
	if err != nil {
		sp.ps.countSaveFailure()
		return
	}
	line, err := artifact.ChecksumLine(rec)
	if err != nil {
		sp.ps.countSaveFailure()
		return
	}
	if err := faults.Check("core.progress.save"); err != nil {
		sp.ps.countSaveFailure()
		return
	}
	faults.CorruptBytes("core.progress.save", line)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.dead {
		sp.ps.countSaveFailure()
		return
	}
	if _, err := sp.f.Write(append(line, '\n')); err != nil {
		sp.dead = true
		sp.ps.countSaveFailure()
		return
	}
	if err := sp.f.Sync(); err != nil {
		sp.dead = true
		sp.ps.countSaveFailure()
		return
	}
	sp.ps.countSave()
}

// close releases the journal's file handle.
func (sp *simProgress) close() {
	if sp == nil || sp.f == nil {
		return
	}
	sp.f.Close()
}
