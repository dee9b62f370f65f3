package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"looppoint/internal/artifact"
	"looppoint/internal/bbv"
	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/faults"
	"looppoint/internal/isa"
	"looppoint/internal/pinball"
)

// Durable mid-job progress (crash-only analysis). With Config.ProgressDir
// set, Analyze runs as a sequence of bounded epochs over the recording —
// the same deterministic checkpoint boundaries the parallel front-end
// shards at — and persists, after every epoch, everything a fresh process
// needs to continue: the replay checkpoint (snapshot + syscall cursors +
// step), plus the analysis carry (partial DCFG and merge carry in the
// DCFG phase; decider and stitcher state in the BBV phase). A worker
// SIGKILLed mid-analysis resumes from its last durable epoch instead of
// step 0, and the resumed profile is byte-identical to an uninterrupted
// run — pinned by the progress identity and chaos tests.
//
// Recovery ladder (never wedges a job):
//
//	latest epoch file → next-older epoch file → restart from step 0
//
// Every rung is checksummed and validated before use; a torn write, bit
// rot, a version skew, or a foreign fingerprint just falls to the next
// rung. Saves are best-effort: a failed save (injection site
// "core.progress.save", disk trouble) loses at most one epoch of
// progress, never correctness. If the durable path itself errors,
// Analyze falls back to the stateless pipeline on a fresh recording.

// progressVersion is the progress-file format version. v2: fingerprints
// come from the classified job identity (identity.go).
const progressVersion = 2

// progMagic brands durable progress files.
const progMagic = "LOOPPROG"

// progressRetain is how many epoch files are kept per job: the newest
// and one fallback rung for the recovery ladder.
const progressRetain = 2

// ProgressStats aggregates durable-progress counters, shared by every
// job that is handed the same instance (the serving layer exposes them
// via /v1/stats). All methods are safe for concurrent use and for nil
// receivers — a nil sink counts nothing.
type ProgressStats struct {
	saves        atomic.Uint64
	saveFailures atomic.Uint64
	recoveries   atomic.Uint64
	stepsSaved   atomic.Uint64
	ladderFalls  atomic.Uint64
}

func (s *ProgressStats) countSave() {
	if s != nil {
		s.saves.Add(1)
	}
}

func (s *ProgressStats) countSaveFailure() {
	if s != nil {
		s.saveFailures.Add(1)
	}
}

func (s *ProgressStats) countRecovery(stepsSaved uint64) {
	if s != nil {
		s.recoveries.Add(1)
		s.stepsSaved.Add(stepsSaved)
	}
}

func (s *ProgressStats) countLadderFall() {
	if s != nil {
		s.ladderFalls.Add(1)
	}
}

// Snapshot returns the current counter values: durable epoch saves,
// failed saves, successful recoveries, schedule steps those recoveries
// skipped re-replaying, and recovery-ladder falls (progress files
// rejected as torn/corrupt/foreign).
func (s *ProgressStats) Snapshot() (saves, saveFailures, recoveries, stepsSaved, ladderFalls uint64) {
	if s == nil {
		return
	}
	return s.saves.Load(), s.saveFailures.Load(), s.recoveries.Load(),
		s.stepsSaved.Load(), s.ladderFalls.Load()
}

// progressState is the JSON carry attached to each epoch's checkpoint.
// Phase 0 persists the partial DCFG merge (graph + carry); phase 1
// persists the close-decision and stitch chain (decider + stitcher). The
// whole blob lives inside the checksummed progress envelope, so torn or
// flipped bytes are caught before any of it is parsed.
type progressState struct {
	Key         string
	Fingerprint string
	Epoch       int
	// Phase is 0 while the DCFG replay is in progress, 1 during the BBV
	// replay (markers and loops are re-derived from the finished graph on
	// resume — they are deterministic functions of it).
	Phase int
	Total uint64
	Every uint64

	Graph    *dcfg.GraphState   `json:",omitempty"`
	Carry    *dcfg.CarryState   `json:",omitempty"`
	Decider  *bbv.DeciderState  `json:",omitempty"`
	Stitcher *bbv.StitcherState `json:",omitempty"`
}

func marshalProgressState(st *progressState) ([]byte, error) { return json.Marshal(st) }

func unmarshalProgressState(data []byte) (*progressState, error) {
	st := &progressState{}
	if err := json.Unmarshal(data, st); err != nil {
		return nil, err
	}
	return st, nil
}

// progressFingerprint hashes what determines the recording and the
// profile: the program and the configuration through the analysis stage.
// Two jobs with the same key and fingerprint may resume each other's
// progress; anything else falls the ladder.
func progressFingerprint(prog *isa.Program, cfg *Config) string {
	return Fingerprint(StageAnalysis, progressVersion, prog.Name, prog.NumThreads(), *cfg)
}

// progressBase returns the per-job file-name stem inside the progress
// directory: <key>-<fingerprint>. Every file the durable path writes
// shares this stem, so one job's files never collide with another's and
// a changed configuration starts cleanly instead of mis-resuming.
func progressBase(dir string, prog *isa.Program, cfg *Config) string {
	key := cfg.ProgressKey
	if key == "" {
		key = fmt.Sprintf("%016x", artifact.Checksum([]byte(prog.Name)))
	}
	return filepath.Join(dir, key+"-"+progressFingerprint(prog, cfg))
}

// encodeProgress wraps one epoch's checkpoint and carry state in the
// progress envelope: magic, version, length-prefixed checkpoint envelope
// (pinball.EncodeCheckpoint), length-prefixed JSON state, trailing
// FNV-1a over everything after the magic.
func encodeProgress(ck pinball.Checkpoint, st *progressState) ([]byte, error) {
	ckBytes, err := pinball.EncodeCheckpoint(ck)
	if err != nil {
		return nil, err
	}
	stBytes, err := marshalProgressState(st)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(progMagic)+8+8+len(ckBytes)+8+len(stBytes)+16)
	buf = append(buf, progMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, progressVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ckBytes)))
	buf = append(buf, ckBytes...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(stBytes)))
	buf = append(buf, stBytes...)
	sum := artifact.Update(artifact.FNVOffset, buf[len(progMagic):])
	return binary.LittleEndian.AppendUint64(buf, sum), nil
}

// decodeProgress verifies and unwraps a progress envelope, classifying
// failures into the artifact sentinels for the recovery ladder.
func decodeProgress(data []byte) (pinball.Checkpoint, *progressState, error) {
	var none pinball.Checkpoint
	if len(data) < len(progMagic) {
		return none, nil, fmt.Errorf("core: progress header: %w at byte offset %d", artifact.ErrTruncated, len(data))
	}
	if string(data[:len(progMagic)]) != progMagic {
		return none, nil, fmt.Errorf("core: bad progress magic %q: %w", data[:len(progMagic)], artifact.ErrCorrupt)
	}
	// Integrity first: the payload holds variable-length sections, so a
	// flipped length byte would otherwise send the section reads astray.
	if len(data) < len(progMagic)+8 {
		return none, nil, fmt.Errorf("core: progress integrity hash: %w at byte offset %d", artifact.ErrTruncated, len(data))
	}
	payload := data[len(progMagic) : len(data)-8]
	want := artifact.Update(artifact.FNVOffset, payload)
	if got := binary.LittleEndian.Uint64(data[len(data)-8:]); got != want {
		return none, nil, fmt.Errorf("core: progress integrity hash mismatch (file %#x, computed %#x): %w", got, want, artifact.ErrCorrupt)
	}
	off := 0
	u64 := func() (uint64, bool) {
		if off+8 > len(payload) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(payload[off:])
		off += 8
		return v, true
	}
	v, ok := u64()
	if !ok {
		return none, nil, fmt.Errorf("core: progress version: %w at byte offset %d", artifact.ErrTruncated, len(data))
	}
	if v != progressVersion {
		return none, nil, fmt.Errorf("core: progress version %d (want %d): %w", v, progressVersion, artifact.ErrVersion)
	}
	section := func(name string) ([]byte, error) {
		n, ok := u64()
		if !ok || n > uint64(len(payload)-off) {
			return nil, fmt.Errorf("core: progress %s: %w at byte offset %d", name, artifact.ErrTruncated, len(data))
		}
		s := payload[off : off+int(n)]
		off += int(n)
		return s, nil
	}
	ckBytes, err := section("checkpoint")
	if err != nil {
		return none, nil, err
	}
	stBytes, err := section("state")
	if err != nil {
		return none, nil, err
	}
	ck, err := pinball.DecodeCheckpoint(ckBytes)
	if err != nil {
		return none, nil, err
	}
	st, err := unmarshalProgressState(stBytes)
	if err != nil {
		return none, nil, fmt.Errorf("core: progress state: %v: %w", err, artifact.ErrCorrupt)
	}
	return ck, st, nil
}

// progressPath names one epoch's progress file.
func progressPath(base string, epoch int) string {
	return fmt.Sprintf("%s.e%06d.progress", base, epoch)
}

// saveEpoch persists one epoch durably (temp + fsync + rename). Saves
// are best-effort: any failure — including an injected Transient at site
// "core.progress.save" — is counted and swallowed; the job keeps going
// and at most one epoch of resumability is lost. An injected Corrupt
// flips bytes in the written file, which the load-side checksum catches.
func saveEpoch(base string, ck pinball.Checkpoint, st *progressState, ps *ProgressStats) {
	data, err := encodeProgress(ck, st)
	if err != nil {
		ps.countSaveFailure()
		return
	}
	if err := faults.Check("core.progress.save"); err != nil {
		ps.countSaveFailure()
		return
	}
	faults.CorruptBytes("core.progress.save", data)
	if err := artifact.WriteFileDurable(progressPath(base, st.Epoch), data); err != nil {
		ps.countSaveFailure()
		return
	}
	ps.countSave()
	// Retention: this epoch plus one fallback rung.
	os.Remove(progressPath(base, st.Epoch-progressRetain))
}

// loadEpoch reads and verifies one progress file. Injection site
// "core.progress.load" can fail the read (Transient) or corrupt the
// bytes after they leave disk (Corrupt).
func loadEpoch(path string) (pinball.Checkpoint, *progressState, error) {
	if err := faults.Check("core.progress.load"); err != nil {
		return pinball.Checkpoint{}, nil, fmt.Errorf("core: load progress %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return pinball.Checkpoint{}, nil, err
	}
	faults.CorruptBytes("core.progress.load", data)
	ck, st, err := decodeProgress(data)
	if err != nil {
		return pinball.Checkpoint{}, nil, fmt.Errorf("load %s: %w", path, err)
	}
	return ck, st, nil
}

// progressCandidates lists a job's epoch files newest-first — the
// recovery ladder's rungs. Stray temp files from a crash between write
// and rename never match the ".e<N>.progress" shape, so they are
// ignored by construction.
func progressCandidates(base string) []string {
	dir, stem := filepath.Split(base)
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	type cand struct {
		path  string
		epoch int
	}
	var cands []cand
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, stem+".e") || !strings.HasSuffix(name, ".progress") {
			continue
		}
		numeric := strings.TrimSuffix(strings.TrimPrefix(name, stem+".e"), ".progress")
		epoch, err := strconv.Atoi(numeric)
		if err != nil {
			continue
		}
		cands = append(cands, cand{filepath.Join(dir, name), epoch})
	}
	sort.Slice(cands, func(i, k int) bool { return cands[i].epoch > cands[k].epoch })
	paths := make([]string, len(cands))
	for i, c := range cands {
		paths[i] = c.path
	}
	return paths
}

// resumedAnalysis is a validated recovery-ladder rung, restored into
// live structures and ready to continue the epoch loop.
type resumedAnalysis struct {
	ck    pinball.Checkpoint
	epoch int
	phase int
	// Phase-0 carry.
	g     *dcfg.Graph
	carry dcfg.Carry
	// Phase-1 carry (graph is complete; loops/markers re-derived).
	loops   *dcfg.LoopTable
	markers []uint64
	modulus map[uint64]uint64
	dec     *bbv.Decider
	stitch  *bbv.Stitcher
}

// recoverAnalysis walks the recovery ladder: newest epoch file first,
// falling to older rungs on any load or validation failure, nil when
// every rung fails (restart from step 0). A rung whose bytes are bad
// (torn, corrupt, version-skewed) is deleted so it cannot re-fail every
// future restart; a rung that merely failed to read (injected Transient,
// I/O trouble) is left in place.
func recoverAnalysis(prog *isa.Program, cfg *Config, pb *pinball.Pinball, base, key, fp string, total uint64) *resumedAnalysis {
	ps := cfg.Progress
	for _, path := range progressCandidates(base) {
		r, err := restoreRung(prog, cfg, pb, path, key, fp, total)
		if err != nil {
			if !errors.Is(err, faults.ErrInjected) {
				os.Remove(path)
			}
			ps.countLadderFall()
			continue
		}
		steps := r.ck.Step
		if r.phase == 1 {
			steps += total // the whole DCFG pass is behind us too
		}
		ps.countRecovery(steps)
		return r
	}
	return nil
}

// restoreRung loads one epoch file and restores it into live structures,
// validating everything against the program and recording first.
func restoreRung(prog *isa.Program, cfg *Config, pb *pinball.Pinball, path, key, fp string, total uint64) (*resumedAnalysis, error) {
	ck, st, err := loadEpoch(path)
	if err != nil {
		return nil, err
	}
	if st.Key != key || st.Fingerprint != fp {
		return nil, fmt.Errorf("core: progress file %s belongs to job %s/%s: %w", path, st.Key, st.Fingerprint, artifact.ErrCorrupt)
	}
	if st.Total != total || ck.Step > total {
		return nil, fmt.Errorf("core: progress file %s positions step %d of %d in a %d-step recording: %w",
			path, ck.Step, st.Total, total, artifact.ErrCorrupt)
	}
	if len(ck.Snap.Threads) != prog.NumThreads() || len(ck.SysPos) != len(pb.Syscalls) {
		return nil, fmt.Errorf("core: progress file %s snapshot shape mismatch: %w", path, artifact.ErrCorrupt)
	}
	if st.Graph == nil {
		return nil, fmt.Errorf("core: progress file %s has no graph: %w", path, artifact.ErrCorrupt)
	}
	g, err := dcfg.RestoreGraph(prog, st.Graph)
	if err != nil {
		return nil, fmt.Errorf("core: progress file %s: %v: %w", path, err, artifact.ErrCorrupt)
	}
	r := &resumedAnalysis{ck: ck, epoch: st.Epoch, phase: st.Phase, g: g}
	switch st.Phase {
	case 0:
		if st.Carry == nil {
			return nil, fmt.Errorf("core: progress file %s has no merge carry: %w", path, artifact.ErrCorrupt)
		}
		if r.carry, err = dcfg.RestoreCarry(prog, *st.Carry); err != nil {
			return nil, fmt.Errorf("core: progress file %s: %v: %w", path, err, artifact.ErrCorrupt)
		}
	case 1:
		if st.Decider == nil || st.Stitcher == nil {
			return nil, fmt.Errorf("core: progress file %s has no decider/stitcher: %w", path, artifact.ErrCorrupt)
		}
		r.loops = g.FindLoops()
		if r.markers, r.modulus, err = markersAndModulus(prog, cfg, pb, g, r.loops); err != nil {
			return nil, fmt.Errorf("core: progress file %s: %v: %w", path, err, artifact.ErrCorrupt)
		}
		if r.dec, err = bbv.RestoreDecider(sliceTargetFor(prog, cfg), r.modulus, st.Decider); err != nil {
			return nil, fmt.Errorf("core: progress file %s: %v: %w", path, err, artifact.ErrCorrupt)
		}
		if r.stitch, err = st.Stitcher.RestoreStitcher(prog); err != nil {
			return nil, fmt.Errorf("core: progress file %s: %v: %w", path, err, artifact.ErrCorrupt)
		}
	default:
		return nil, fmt.Errorf("core: progress file %s has unknown phase %d: %w", path, st.Phase, artifact.ErrCorrupt)
	}
	return r, nil
}

// durablePinball loads the job's saved recording, or records afresh and
// saves it durably. The recording is deterministic in the fingerprinted
// config, so a reload and a re-record are interchangeable; a missing,
// torn, or foreign pinball file just costs a re-record.
func durablePinball(prog *isa.Program, cfg *Config, base string) (*pinball.Pinball, error) {
	path := base + ".pinball"
	if pb, err := pinball.Load(path); err == nil && pb.Name == prog.Name {
		return pb, nil
	}
	pb, err := pinball.RecordWithOptions(prog, cfg.Seed, exec.RunOpts{
		FlowWindow:  cfg.FlowWindow,
		QuantumBias: cfg.HostBias,
	})
	if err != nil {
		return nil, fmt.Errorf("core: analyze %s: %w", prog.Name, err)
	}
	if err := artifact.WriteFileDurable(path, pb.AppendBinary(nil)); err != nil {
		cfg.Progress.countSaveFailure() // best-effort: a restart re-records
	}
	return pb, nil
}

// replayEpoch replays one epoch's window of the schedule from the
// checkpoint with a single observer attached (block tier when the
// observer supports it, mirroring Replay), and returns the checkpoint at
// the window's end — the exact carry the next epoch resumes from.
func replayEpoch(prog *isa.Program, pb *pinball.Pinball, from pinball.Checkpoint, steps uint64, obs exec.Observer) (_ pinball.Checkpoint, err error) {
	defer exec.Recover(&err)
	m, replay := pb.ReplayFrom(prog, from)
	if bo, ok := obs.(exec.BlockObserver); ok {
		m.AddBlockObserver(bo)
	} else {
		m.AddObserver(obs)
	}
	window := pb.Schedule.Skip(from.Step).Take(steps)
	if err := m.RunSchedule(window); err != nil {
		return pinball.Checkpoint{}, fmt.Errorf("core: epoch at step %d of %s: %w", from.Step, prog.Name, err)
	}
	if replay.Diverged {
		return pinball.Checkpoint{}, fmt.Errorf("core: syscall injection log exhausted at step %d of %s", from.Step, prog.Name)
	}
	return pinball.Checkpoint{Snap: m.Snapshot(), SysPos: replay.Positions(), Step: from.Step + steps}, nil
}

// analyzeDurable is the crash-only analysis pipeline: record (or reload)
// the pinball, then replay it in durable epochs — DCFG phase, then BBV
// phase — persisting a recovery point after every epoch. The profile is
// byte-identical to the serial and parallel paths (the epoch loop is the
// shard pipeline run serially at ProgressEvery-step boundaries, and
// profiles are invariant under shard widths). Any error returns to
// Analyze, which falls back to the stateless pipeline.
func analyzeDurable(prog *isa.Program, cfg Config) (*Analysis, error) {
	if err := os.MkdirAll(cfg.ProgressDir, 0o755); err != nil {
		return nil, fmt.Errorf("core: progress dir: %w", err)
	}
	base := progressBase(cfg.ProgressDir, prog, &cfg)
	key := cfg.ProgressKey
	if key == "" {
		key = fmt.Sprintf("%016x", artifact.Checksum([]byte(prog.Name)))
	}
	fp := progressFingerprint(prog, &cfg)
	ps := cfg.Progress

	pb, err := durablePinball(prog, &cfg, base)
	if err != nil {
		return nil, err
	}
	if err := pb.Verify(); err != nil {
		return nil, err
	}
	total := pb.Schedule.Steps()
	every := cfg.ProgressEvery
	if every == 0 {
		every = shardEvery(&cfg, total)
	}

	// Start state: step 0 of the DCFG phase, or wherever the recovery
	// ladder lands.
	g := dcfg.NewGraph(prog)
	carry := dcfg.StartCarry(prog.NumThreads())
	ck := pb.StartCheckpoint()
	phase, epoch := 0, 0
	var (
		loops   *dcfg.LoopTable
		markers []uint64
		modulus map[uint64]uint64
		dec     *bbv.Decider
		stitch  *bbv.Stitcher
	)
	if r := recoverAnalysis(prog, &cfg, pb, base, key, fp, total); r != nil {
		ck, epoch, phase, g = r.ck, r.epoch, r.phase, r.g
		carry = r.carry
		loops, markers, modulus = r.loops, r.markers, r.modulus
		dec, stitch = r.dec, r.stitch
	}

	width := func(step uint64) uint64 {
		if rem := total - step; rem < every {
			return rem
		}
		return every
	}

	// Phase 0: DCFG epochs. One ShardBuilder window per epoch, merged
	// into the growing graph through the carry chain — exactly the
	// parallel front-end's merge, in shard order.
	if phase == 0 {
		for ck.Step < total {
			w := width(ck.Step)
			sb := dcfg.NewShardBuilder(prog.NumThreads())
			next, err := replayEpoch(prog, pb, ck, w, sb)
			if err != nil {
				return nil, err
			}
			if carry, err = sb.MergeInto(g, carry); err != nil {
				return nil, fmt.Errorf("core: %s: %w", prog.Name, err)
			}
			ck = next
			epoch++
			cs := carry.State()
			saveEpoch(base, ck, &progressState{
				Key: key, Fingerprint: fp, Epoch: epoch, Phase: 0,
				Total: total, Every: every, Graph: g.State(), Carry: &cs,
			}, ps)
		}
		loops = g.FindLoops()
		if markers, modulus, err = markersAndModulus(prog, &cfg, pb, g, loops); err != nil {
			return nil, err
		}
		dec = bbv.NewDecider(sliceTargetFor(prog, &cfg), modulus)
		stitch = bbv.NewStitcher(prog)
		ck = pb.StartCheckpoint()
		phase = 1
		// A phase-boundary save, so a crash here resumes into the BBV
		// phase instead of re-replaying the whole DCFG pass.
		epoch++
		ds, ss := dec.State(), stitch.State()
		saveEpoch(base, ck, &progressState{
			Key: key, Fingerprint: fp, Epoch: epoch, Phase: 1,
			Total: total, Every: every, Graph: g.State(), Decider: ds, Stitcher: ss,
		}, ps)
	}

	// Phase 1: BBV epochs. Scan the window, chain the close decisions,
	// accumulate the window's pieces, stitch — the parallel front-end's
	// scan → decide → accumulate pipeline, one shard at a time.
	for ck.Step < total {
		w := width(ck.Step)
		sc := bbv.NewScanner(markers, cfg.NoSpinFilter)
		if _, err := pb.ReplayWindow(prog, ck, w, sc); err != nil {
			return nil, fmt.Errorf("core: BBV scan of %s: %w", prog.Name, err)
		}
		closes := dec.Feed(sc.Scan())
		events := make([]int, len(closes))
		for j, c := range closes {
			events[j] = c.Event
		}
		ac := bbv.NewAccumulator(prog, markers, events, cfg.NoSpinFilter)
		next, err := replayEpoch(prog, pb, ck, w, ac)
		if err != nil {
			return nil, err
		}
		stitch.Feed(ac.Pieces(), closes)
		ck = next
		epoch++
		ds, ss := dec.State(), stitch.State()
		saveEpoch(base, ck, &progressState{
			Key: key, Fingerprint: fp, Epoch: epoch, Phase: 1,
			Total: total, Every: every, Graph: g.State(), Decider: ds, Stitcher: ss,
		}, ps)
	}

	totFiltered, totICount := dec.Totals()
	prof := stitch.Finish(prog, dec.MarkerCounts(), totFiltered, totICount)
	if len(prof.Regions) == 0 {
		return nil, fmt.Errorf("core: %s produced no regions", prog.Name)
	}
	return &Analysis{
		Prog: prog, Pinball: pb, Graph: g, Loops: loops,
		Markers: markers, Profile: prof, Config: cfg,
	}, nil
}
