package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"time"

	"looppoint/internal/artifact"
	"looppoint/internal/bbv"
	"looppoint/internal/core"
	"looppoint/internal/timing"
)

// The resume journal makes a long experiment campaign restartable: every
// completed evaluation appends one self-checksummed JSONL record keyed
// by its ReportKey, and a fresh Evaluator pointed at the same journal
// rehydrates those reports instead of redoing the record/profile/
// cluster/simulate work. Records hold the scalar subset of a
// core.Report that the tables and figures consume (prediction, errors,
// speedups, degradation, and the selection's region/looppoint counts) —
// everything the renderers read, nothing that cannot be serialized.
// Lines that fail their checksum or do not parse are dropped silently:
// a torn final line from a killed run must not poison the restart.
//
// ReportKey alone does not pin down a report's numbers — -slice, -seed,
// the selection engine, and the degraded/retry knobs all change what an
// evaluation produces without appearing in the key. Each record therefore
// also carries a fingerprint of the evaluator configuration it was
// computed under, and resume skips (with a warning) records whose
// fingerprint does not match the current run instead of silently serving
// numbers from a different configuration.

// journalConfigVersion is bumped whenever the journaled record schema
// changes, invalidating older journals wholesale. v2: records gained the
// confidence-interval block. v3: the core config grew the
// durable-progress fields. v4: the fingerprint is the classified job
// identity, which leaves out host-only settings such as -j.
const journalConfigVersion = 4

// configFingerprint is the job identity of an evaluation beyond its
// ReportKey: the resolved core config and run options through the
// simulation stage (see core.Fingerprint; whether the full simulation
// runs is part of the key). Host-only settings — -j, the
// durable-progress knobs, the stats sink — never enter it, so a journal
// written at one width resumes at any other.
func configFingerprint(o Options) string {
	return core.Fingerprint(core.StageSimulation, journalConfigVersion, o.config(), o.runOpts(false))
}

// reportData is the journaled scalar subset of a core.Report.
type reportData struct {
	Name           string            `json:"name"`
	NumRegions     int               `json:"num_regions"`
	NumPoints      int               `json:"num_points"`
	Predicted      core.Prediction   `json:"predicted"`
	Full           *timing.Stats     `json:"full,omitempty"`
	FullHostTimeNS int64             `json:"full_host_time_ns,omitempty"`
	RuntimeErrPct  float64           `json:"runtime_err_pct"`
	CyclesErrPct   float64           `json:"cycles_err_pct"`
	BranchMPKIDiff float64           `json:"branch_mpki_diff"`
	L1DMPKIDiff    float64           `json:"l1d_mpki_diff"`
	L2MPKIDiff     float64           `json:"l2_mpki_diff"`
	L3MPKIDiff     float64           `json:"l3_mpki_diff"`
	Speedups       core.Speedups     `json:"speedups"`
	Degradation    *core.Degradation `json:"degradation,omitempty"`
	// Intervals round-trips the confidence-interval block byte-identically
	// (omitted for point-estimate engines, where it is nil).
	Intervals *core.Intervals `json:"intervals,omitempty"`
}

func newReportData(rep *core.Report) reportData {
	return reportData{
		Name:           rep.Name,
		NumRegions:     len(rep.Selection.Analysis.Profile.Regions),
		NumPoints:      len(rep.Selection.Points),
		Predicted:      rep.Predicted,
		Full:           rep.Full,
		FullHostTimeNS: int64(rep.FullHostTime),
		RuntimeErrPct:  rep.RuntimeErrPct,
		CyclesErrPct:   rep.CyclesErrPct,
		BranchMPKIDiff: rep.BranchMPKIDiff,
		L1DMPKIDiff:    rep.L1DMPKIDiff,
		L2MPKIDiff:     rep.L2MPKIDiff,
		L3MPKIDiff:     rep.L3MPKIDiff,
		Speedups:       rep.Speedups,
		Degradation:    rep.Degradation,
		Intervals:      rep.Intervals,
	}
}

// report rehydrates a journaled record into a core.Report. The selection
// is a stub carrying only the region/looppoint counts the renderers
// read; consumers needing the analysis pinball (Constrained) re-record
// it deterministically.
func (d reportData) report() *core.Report {
	sel := &core.Selection{
		Analysis: &core.Analysis{
			Profile: &bbv.Profile{Regions: make([]*bbv.Region, d.NumRegions)},
		},
		Points: make([]core.LoopPoint, d.NumPoints),
	}
	return &core.Report{
		Name:           d.Name,
		Selection:      sel,
		Predicted:      d.Predicted,
		Degradation:    d.Degradation,
		Intervals:      d.Intervals,
		Full:           d.Full,
		FullHostTime:   time.Duration(d.FullHostTimeNS),
		RuntimeErrPct:  d.RuntimeErrPct,
		CyclesErrPct:   d.CyclesErrPct,
		BranchMPKIDiff: d.BranchMPKIDiff,
		L1DMPKIDiff:    d.L1DMPKIDiff,
		L2MPKIDiff:     d.L2MPKIDiff,
		L3MPKIDiff:     d.L3MPKIDiff,
		Speedups:       d.Speedups,
	}
}

// journalRecord is the checksummed unit: the memoization key, the
// fingerprint of the configuration the report was computed under, and
// the report data. The on-disk line format is the shared checksummed
// envelope (artifact.ChecksumLine/VerifyLine).
type journalRecord struct {
	Key    string     `json:"key"`
	Config string     `json:"config"`
	Report reportData `json:"report"`
}

// journal appends completed evaluations to a JSONL file.
type journal struct {
	config string // fingerprint stamped on every appended record
	mu     sync.Mutex
	f      *os.File
	dead   bool // a write failed; stop appending, keep evaluating
}

// loadJournal parses an existing journal file into rehydrated reports.
// A missing file yields an empty map. Lines that fail their checksum or
// do not parse are skipped and counted in dropped; well-formed records
// whose config fingerprint differs from config (including records from
// before fingerprinting existed) are skipped and counted in mismatched —
// they are valid journal lines, just from a different run configuration.
func loadJournal(path, config string) (restored map[string]*core.Report, dropped, mismatched int, err error) {
	restored = make(map[string]*core.Report)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return restored, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		recBytes, ok := artifact.VerifyLine(line)
		if !ok {
			dropped++
			continue
		}
		var rec journalRecord
		if json.Unmarshal(recBytes, &rec) != nil || rec.Key == "" {
			dropped++
			continue
		}
		if rec.Config != config {
			mismatched++
			continue
		}
		restored[rec.Key] = rec.Report.report()
	}
	if err := sc.Err(); err != nil {
		return nil, 0, 0, err
	}
	return restored, dropped, mismatched, nil
}

// openJournal opens (creating if needed) the journal for appending
// records stamped with the given config fingerprint. A final line torn
// by a mid-write kill is truncated away first (artifact.RepairTornTail,
// crash-safe), so the next append starts on a fresh line instead of
// corrupt-concatenating with the torn bytes (which would lose both the
// torn record and the new one).
func openJournal(path, config string) (*journal, error) {
	if err := artifact.RepairTornTail(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{config: config, f: f}, nil
}

// append writes one completed evaluation. The line is checksummed so a
// restart can reject records torn by a mid-write kill, and fsynced so a
// SIGKILL right after a drain checkpoint (the serving layer journals
// in-flight work on SIGTERM) never loses an acknowledged record to the
// page cache.
func (j *journal) append(key string, rep *core.Report) error {
	rec, err := json.Marshal(journalRecord{Key: key, Config: j.config, Report: newReportData(rep)})
	if err != nil {
		return err
	}
	line, err := artifact.ChecksumLine(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return nil
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		j.dead = true
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.dead = true
		return err
	}
	return nil
}

// Close releases the journal's file handle.
func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
