package core

import (
	"fmt"

	"delorean/internal/bulksc"
	"delorean/internal/isa"
	"delorean/internal/sim"
)

// IntervalCheckpoint is a periodic system checkpoint taken during
// recording (paper Appendix B's GCC=n cut), plus the fingerprint of the
// interval from the cut to the end of the recording.
type IntervalCheckpoint struct {
	bulksc.Checkpoint
	// Fingerprint covers only the interval [Slot, end): a replay started
	// from this checkpoint must reproduce it.
	Fingerprint uint64
	// ProcChains are the per-processor slices of the interval
	// fingerprint (see Recording.ProcChains).
	ProcChains []uint64
	// IntervalFingerprint covers the bounded interval [prevSlot, Slot) —
	// from the previous cut (or the start of the recording) up to this
	// cut. Segmented replay checks each worker's interval against it.
	IntervalFingerprint uint64
	// IntervalChains are the per-processor slices of IntervalFingerprint.
	IntervalChains []uint64
}

// validateCheckpointProcs checks every checkpointed processor state
// against the programs the replay will actually run. Recording.Validate
// cannot do this — recordings do not store programs — yet resuming a
// core at a control-flow target outside its program would panic the
// interpreter, so a mismatch is diagnosed here as log corruption.
func validateCheckpointProcs(rec *Recording, progs []*isa.Program) error {
	for i := range rec.Checkpoints {
		for p := range rec.Checkpoints[i].Procs {
			st := &rec.Checkpoints[i].Procs[p].State
			n := len(progs[p].Insts)
			if st.PC < 0 || st.PC >= n || st.IntrPC < 0 || st.IntrPC >= n {
				return fmt.Errorf("%w: checkpoint %d resumes proc %d at PC %d (intr PC %d), program has %d instructions",
					ErrCorruptLog, i, p, st.PC, st.IntrPC, n)
			}
		}
	}
	return nil
}

// ReplayFromCheckpoint replays the interval from rec.Checkpoints[idx] to
// the end of the recording: memory is restored from the checkpoint,
// processors resume from their saved chunk boundaries, and the log
// suffixes drive ordering and inputs. It is the interval replayer run
// from checkpoint idx, verified against the checkpoint's suffix
// fingerprint and the recording's final memory hash. Recording with
// checkpoints requires RecordOptions.CheckpointEvery > 0.
//
// Stratified interval replay is not supported: stratum boundaries do not
// generally align with checkpoint slots.
func ReplayFromCheckpoint(rec *Recording, idx int, cfg sim.Config, progs []*isa.Program, opts ReplayOptions) (ReplayResult, error) {
	if n := rec.CheckpointCount(); idx < 0 || idx >= n {
		return ReplayResult{}, checkpointRange(idx, n)
	}
	r, err := newReplayer(rec, cfg, progs, opts, idx, false)
	if err != nil {
		return ReplayResult{}, err
	}
	return r.run(idx)
}

// IntervalMatch reports which sides of an interval-replay comparison
// held: the interval fingerprint from the checkpoint cut, and the final
// architectural memory state.
type IntervalMatch struct {
	FingerprintOK bool
	MemHashOK     bool
}

// OK reports whether both sides matched.
func (m IntervalMatch) OK() bool { return m.FingerprintOK && m.MemHashOK }

// MatchInterval compares an interval replay's result against the
// recorded interval [Checkpoints[idx].Slot, end), reporting which side
// mismatched rather than one opaque boolean. Returns
// ErrCheckpointRange if idx is out of range.
func (r ReplayResult) MatchInterval(rec *Recording, idx int) (IntervalMatch, error) {
	if idx < 0 || idx >= len(rec.Checkpoints) {
		return IntervalMatch{}, checkpointRange(idx, len(rec.Checkpoints))
	}
	return IntervalMatch{
		FingerprintOK: r.Fingerprint == rec.Checkpoints[idx].Fingerprint,
		MemHashOK:     r.MemHash == rec.FinalMemHash,
	}, nil
}

// MatchesInterval reports whether an interval replay reproduced the
// recorded interval. See MatchInterval for a diagnosis of which side
// failed.
func (r ReplayResult) MatchesInterval(rec *Recording, idx int) bool {
	m, err := r.MatchInterval(rec, idx)
	return err == nil && m.OK()
}
