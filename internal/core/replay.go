package core

// Replay: one interval replayer, three entry points.
//
// A replay re-runs the recorded programs from a checkpoint with an
// order-enforcing arbiter policy and the logs as the input source. Every
// replay in this package is one interval of that kind (paper Appendix
// B's I(n, m)), run by replayer.interval: it starts from the initial
// state or from checkpoint j, and it either runs to convergence or stops
// exactly at the next checkpoint's cut. The entry points differ only in
// which intervals they ask for and what they verify them against:
//
//   - Replay: the interval from the initial state to the end, checked
//     against the recording's fingerprint and final memory hash;
//   - ReplayFromCheckpoint(j): the interval from checkpoint j to the end,
//     checked against checkpoint j's suffix fingerprint;
//   - segmented Replay (ReplayOptions.ReplayParallel): the k+1 intervals
//     between consecutive cuts, fanned out across workers, each bounded
//     one checked against its interval fingerprint and memory delta (see
//     segmented.go).
//
// newReplayer runs the up-front checks once per public call, and every
// interval runs on pooled engine state (scratchPool).

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"delorean/internal/arbiter"
	"delorean/internal/bulksc"
	"delorean/internal/dlog"
	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/sim"
	"delorean/internal/stratifier"
	"delorean/internal/trace"
)

// ReplayResult is the outcome of a deterministic replay.
type ReplayResult struct {
	Stats       bulksc.Stats
	Fingerprint uint64
	MemHash     uint64
}

// Matches reports whether the replay reproduced the recording: the same
// per-processor chunk streams and inputs (fingerprint) and the same final
// architectural memory state.
func (r ReplayResult) Matches(rec *Recording) bool {
	return r.Fingerprint == rec.Fingerprint && r.MemHash == rec.FinalMemHash
}

// logView is the immutable, shareable part of a Recording's replay
// inputs: truncation and interrupt lookups, I/O value slices and the
// DMA entry list. Building it walks every log once; each replay call
// builds one view and hands every interval its own cursored logSource
// over it.
type logView struct {
	trunc []map[uint64]int
	intr  []map[uint64]dlog.IntrEntry
	io    [][]uint64
	dma   []dlog.DMAEntry
}

func newLogView(rec *Recording) *logView {
	v := &logView{dma: rec.DMA.Entries()}
	for p := 0; p < rec.NProcs; p++ {
		if rec.Mode == OrderSize {
			// Every chunk's size is logged; expose them all as
			// truncations so chunking follows the size log exactly.
			m := make(map[uint64]int, rec.Sizes[p].Len())
			for seq, sz := range rec.Sizes[p].Sizes() {
				m[uint64(seq)] = sz
			}
			v.trunc = append(v.trunc, m)
		} else {
			v.trunc = append(v.trunc, rec.CS[p].Lookup())
		}
		v.intr = append(v.intr, rec.Intr[p].Lookup())
		v.io = append(v.io, rec.IO[p].Values())
	}
	return v
}

// source returns a fresh cursored ReplaySource over the view.
func (v *logView) source() *logSource {
	return &logSource{logView: v, ioIdx: make([]int, len(v.io))}
}

// logSource adapts a Recording to the engine's ReplaySource: the shared
// immutable view plus this replay's consumption cursors.
type logSource struct {
	*logView
	ioIdx  []int
	dmaIdx int
}

func (s *logSource) Truncation(proc int, seqID uint64) (int, bool) {
	sz, ok := s.trunc[proc][seqID]
	return sz, ok
}

func (s *logSource) InterruptAt(proc int, seqID uint64) (int64, int64, bool, bool) {
	e, ok := s.intr[proc][seqID]
	if !ok {
		return 0, 0, false, false
	}
	return e.Type, e.Data, e.Urgent, true
}

func (s *logSource) NextIOValue(proc int) (uint64, bool) {
	if s.ioIdx[proc] >= len(s.io[proc]) {
		return 0, false
	}
	v := s.io[proc][s.ioIdx[proc]]
	s.ioIdx[proc]++
	return v, true
}

func (s *logSource) NextDMA() (uint32, []uint64, bool) {
	if s.dmaIdx >= len(s.dma) {
		return 0, nil, false
	}
	e := s.dma[s.dmaIdx]
	s.dmaIdx++
	return e.Addr, e.Data, true
}

var _ bulksc.ReplaySource = (*logSource)(nil)

// slotCommit is one logical committed chunk in replay commit order.
// Split pieces merge into the logical chunk they came from, so indices
// into the stream correspond to PI-log positions.
type slotCommit struct {
	proc  int
	seqID uint64
	size  int
}

// replayObserver builds the replay-side fingerprint and keeps the
// logical commit stream for divergence localization. It does not hash
// I/O values as they fire: an interval racing toward its stop boundary
// can consume values the recording attributes to the next interval (I/O
// fires between chunks, so its timing — unlike commit slots — is not
// pinned by the ordering log), so the replayer rebuilds each interval's
// I/O chains from the log's consumption ranges after the run.
type replayObserver struct {
	bulksc.NopObserver
	fp     *fingerprint
	nprocs int
	stream []slotCommit
}

func (o *replayObserver) OnCommit(ev bulksc.CommitEvent) {
	o.fp.commit(ev)
	if ev.Split {
		// A continuation piece shares its logical chunk's slot: fold its
		// size into the processor's most recent stream entry.
		for i := len(o.stream) - 1; i >= 0; i-- {
			if o.stream[i].proc == ev.Proc {
				if o.stream[i].seqID == ev.SeqID {
					o.stream[i].size += ev.Size
				}
				break
			}
		}
		return
	}
	o.stream = append(o.stream, slotCommit{proc: ev.Proc, seqID: ev.SeqID, size: ev.Size})
}
func (o *replayObserver) OnInterrupt(proc int, seq uint64, typ, data int64, _ bool) {
	o.fp.intr(proc, seq, typ, data)
}
func (o *replayObserver) OnDMACommit(_ uint64, addr uint32, data []uint64) {
	o.fp.dma(addr, data)
	o.stream = append(o.stream, slotCommit{proc: o.nprocs, size: -1})
}

// lastSeqOf returns the sequence number of proc's most recent committed
// chunk, if any.
func (o *replayObserver) lastSeqOf(proc int) (uint64, bool) {
	for i := len(o.stream) - 1; i >= 0; i-- {
		if o.stream[i].proc == proc {
			return o.stream[i].seqID, true
		}
	}
	return 0, false
}

// stallError classifies a replay that ended without converging: the
// order-enforcing policy starved (corrupt or truncated ordering log) or
// the instruction budget ran out.
func (rec *Recording) stallError(obs *replayObserver, st bulksc.Stats, budget, piBase uint64) *DivergenceError {
	slot := piBase + uint64(len(obs.stream))
	d := &DivergenceError{Kind: "stall", Mode: rec.Mode, Slot: int64(slot), Proc: -1, SeqID: -1, Interval: -1}
	if st.Insts+st.WastedInsts >= budget {
		d.Detail = fmt.Sprintf("instruction budget (%d) exhausted after %d commits without converging", budget, slot)
		return d
	}
	if rec.Mode != PicoLog {
		if pi := rec.PI.Entries(); slot < uint64(len(pi)) {
			d.Proc = pi[slot]
			if last, ok := obs.lastSeqOf(d.Proc); ok {
				d.SeqID = int64(last) + 1
			} else if d.Proc < rec.NProcs {
				d.SeqID = 0
			}
			d.Detail = fmt.Sprintf("log names processor %d next but it never produced a committable chunk (replayed %d of %d log entries)",
				d.Proc, slot, len(pi))
			return d
		}
		d.Detail = fmt.Sprintf("ordering log exhausted after %d entries with processors still running", slot)
		return d
	}
	d.Detail = fmt.Sprintf("replay starved after %d commits (slot or input log inconsistent with execution)", slot)
	return d
}

// divergence classifies a converged replay whose outcome differs from
// the recording: first it scans the commit stream against the PI and
// size/CS logs (exact slot/core/chunk localization), then falls back to
// the per-processor chain digests (core localization), then to the
// aggregate fingerprint and memory hashes. ordered is false for
// stratified replay, whose commit order legitimately deviates from the
// PI sequence within a stratum.
func (rec *Recording) divergence(obs *replayObserver, res ReplayResult, piBase uint64,
	wantFP uint64, wantChains []uint64, wantMem uint64, ordered bool) *DivergenceError {
	if res.Fingerprint == wantFP && res.MemHash == wantMem {
		return nil
	}
	if ordered && rec.Mode != PicoLog {
		pi := rec.PI.Entries()
		// Per-proc cursors into the Order&Size size logs, advanced over
		// the log prefix an interval replay skipped.
		cursor := make([]int, rec.NProcs)
		for i := uint64(0); i < piBase && i < uint64(len(pi)); i++ {
			if p := pi[i]; p < rec.NProcs {
				cursor[p]++
			}
		}
		for i, sc := range obs.stream {
			slot := piBase + uint64(i)
			if slot >= uint64(len(pi)) {
				return &DivergenceError{Kind: "order", Mode: rec.Mode, Slot: int64(slot), Proc: sc.proc, Interval: -1,
					SeqID: seqOrNeg(sc), Detail: fmt.Sprintf("replay committed %d chunks but the log has %d entries", slot+1, len(pi))}
			}
			if sc.proc != pi[slot] {
				return &DivergenceError{Kind: "order", Mode: rec.Mode, Slot: int64(slot), Proc: sc.proc, Interval: -1,
					SeqID: seqOrNeg(sc), Detail: fmt.Sprintf("processor %d committed where the log names %d", sc.proc, pi[slot])}
			}
			if sc.proc >= rec.NProcs {
				continue // DMA pseudo-processor: no size log
			}
			if rec.Mode == OrderSize {
				want := rec.Sizes[sc.proc].Sizes()[cursor[sc.proc]]
				cursor[sc.proc]++
				if sc.size != want {
					return &DivergenceError{Kind: "size", Mode: rec.Mode, Slot: int64(slot), Proc: sc.proc, Interval: -1,
						SeqID: int64(sc.seqID), Detail: fmt.Sprintf("chunk committed %d instructions where the size log records %d", sc.size, want)}
				}
			}
		}
	}
	if len(wantChains) == rec.NProcs {
		got := obs.fp.procDigests()
		for p := range got {
			if got[p] != wantChains[p] {
				seq := int64(-1)
				if last, ok := obs.lastSeqOf(p); ok {
					seq = int64(last)
				}
				return &DivergenceError{Kind: "state", Mode: rec.Mode, Slot: -1, Proc: p, SeqID: seq, Interval: -1,
					Detail: "core's committed chunk/input stream digest differs from the recording"}
			}
		}
	}
	d := &DivergenceError{Kind: "state", Mode: rec.Mode, Slot: -1, Proc: -1, SeqID: -1, Interval: -1}
	switch {
	case res.MemHash != wantMem:
		d.Detail = fmt.Sprintf("final memory state %x differs from recorded %x", res.MemHash, wantMem)
	default:
		d.Detail = fmt.Sprintf("execution fingerprint %x differs from recorded %x (DMA stream or corrupted fingerprint field)", res.Fingerprint, wantFP)
	}
	return d
}

func seqOrNeg(sc slotCommit) int64 {
	if sc.proc < 0 || sc.size < 0 {
		return -1
	}
	return int64(sc.seqID)
}

// ReplayOptions tune a replay run.
type ReplayOptions struct {
	// Perturb injects the paper's timing noise; nil replays with clean
	// timing.
	Perturb *bulksc.Perturb
	// UseStratified enforces the recording's stratified PI log instead of
	// the exact PI sequence (only meaningful if the recording carried
	// one).
	UseStratified bool
	// ExactConflicts matches the recording's squash oracle.
	ExactConflicts bool
	// Parallel sets the engine's intra-run worker count (0/1: the
	// sequential reference scheduler). Every count replays identically.
	Parallel int
	// ReplayParallel, when > 0, partitions a checkpointed recording into
	// checkpoint-delimited intervals and replays them concurrently on a
	// bounded pool of that many workers (segmented replay). The verdict
	// is bit-identical to a sequential Replay at every worker count, and
	// a divergence is attributed to the earliest diverging interval
	// (DivergenceError.Interval) deterministically. Recordings without
	// checkpoints fall back to plain sequential replay. Incompatible
	// with UseStratified (stratum boundaries do not align with
	// checkpoint cuts).
	ReplayParallel int
	// Trace, when non-nil, captures the replay's execution timeline into
	// the sink (built for the recording's processor count), including a
	// Divergence event locating the first detected divergence if the
	// replay fails to reproduce the recording. Observation-only.
	Trace *trace.Sink
	// Ctx, when non-nil, cancels the replay run: once the context is done
	// the engine (and, for segmented replay, every interval worker) stops
	// within a bounded number of scheduler steps and Replay returns the
	// context's error (wrapped, so errors.Is(err, context.Canceled)
	// holds) — never a DivergenceError.
	Ctx context.Context
}

// Replay re-executes progs deterministically from rec. cfg should
// normally be ReplayConfig(recording cfg). The programs must be the same
// binaries that were recorded.
//
// Replay verifies itself: a malformed recording fails fast with an
// ErrCorruptLog-wrapped error, and a replay that runs but does not
// reproduce the recording (stalled ordering, wrong chunk sizes,
// divergent per-core streams or final memory) returns the partial
// ReplayResult together with a *DivergenceError locating the first
// detected divergence.
//
// Replay only reads rec (see the Recording concurrency comment) and
// builds all engine state per call, so concurrent replays of the same
// recording are safe and produce identical verdicts.
func Replay(rec *Recording, cfg sim.Config, progs []*isa.Program, opts ReplayOptions) (ReplayResult, error) {
	segmented := opts.ReplayParallel > 0 && rec.CheckpointCount() > 0
	r, err := newReplayer(rec, cfg, progs, opts, -1, segmented)
	if err != nil {
		return ReplayResult{}, err
	}
	if segmented {
		return r.segmented()
	}
	// No checkpoints to partition at: one interval, start to end.
	return r.run(-1)
}

// replayer is one public replay call's checked, read-only context: the
// recording, the machine (with the recording's chunk size), the
// programs, the options and the log view every interval's cursors run
// over.
type replayer struct {
	rec   *Recording
	cfg   sim.Config
	progs []*isa.Program
	opts  ReplayOptions
	view  *logView
	// what names the replay in a cancellation error.
	what string
}

// newReplayer runs the up-front checks of a replay starting at from
// (-1: a whole-run replay, segmented or not; j ≥ 0: checkpoint j, which
// the caller has range-checked). It decodes the logs — and the
// checkpoint section, when the replay resumes at checkpoints — on the
// replay's workers, checks the request against the recording, validates
// the recording, matches cfg and progs against it, and checks every
// checkpointed processor state against progs. Each public replay call
// runs it once.
func newReplayer(rec *Recording, cfg sim.Config, progs []*isa.Program, opts ReplayOptions,
	from int, segmented bool) (*replayer, error) {
	resume := segmented || from >= 0
	ensure, workers := rec.EnsureLogs, opts.Parallel
	if resume {
		ensure = rec.EnsureCheckpoints
	}
	if segmented {
		workers = opts.ReplayParallel
	}
	if err := ensure(workers); err != nil {
		return nil, err
	}
	what := "replay"
	if from >= 0 {
		what = "interval replay"
		if opts.UseStratified {
			return nil, fmt.Errorf("core: stratified interval replay is not supported")
		}
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	if cfg.NProcs != rec.NProcs {
		return nil, fmt.Errorf("core: replay with %d procs, recording has %d", cfg.NProcs, rec.NProcs)
	}
	if len(progs) != rec.NProcs {
		return nil, fmt.Errorf("core: replay with %d programs, recording has %d procs", len(progs), rec.NProcs)
	}
	if from < 0 && opts.ReplayParallel > 0 && opts.UseStratified {
		return nil, fmt.Errorf("core: segmented replay cannot enforce a stratified log")
	}
	if resume {
		if err := validateCheckpointProcs(rec, progs); err != nil {
			return nil, err
		}
	}
	cfg.ChunkSize = rec.ChunkSize
	return &replayer{rec: rec, cfg: cfg, progs: progs, opts: opts, view: newLogView(rec), what: what}, nil
}

// run replays the unbounded interval from start point from (-1: the
// initial state, j ≥ 0: checkpoint j) to the end of the recording.
func (r *replayer) run(from int) (ReplayResult, error) {
	s := r.scratch()
	out := r.interval(s, from, false)
	scratchPool.Put(s)
	return out.verdict(r.opts.Trace)
}

// outcome is one interval replay's result.
type outcome struct {
	res ReplayResult
	err error
	// start/end delimit the interval's commit-slot span (end is the
	// actually reached slot for an unbounded interval).
	start, end uint64
}

// verdict returns the interval's result and error, marking a
// divergence on the trace timeline.
func (o outcome) verdict(sink *trace.Sink) (ReplayResult, error) {
	if d, ok := o.err.(*DivergenceError); ok {
		noteDivergence(sink, o.res.Stats.Cycles, d)
	}
	return o.res, o.err
}

// interval is the one replay driver. It replays rec from start point
// from (-1: the initial state, j ≥ 0: checkpoint j's cut) on the engine
// state in s and verifies the run:
//
//   - unbounded, it runs to convergence and must reproduce the
//     recording's fingerprint (checkpoint j's suffix fingerprint when
//     starting at a checkpoint) and final memory hash;
//   - bounded, it stops exactly at checkpoint from+1's cut and must
//     reproduce that checkpoint's interval fingerprint and memory image.
//
// A divergence is reported with Interval -1; the segmented driver
// attributes it. s is owned by the caller for the duration of the call.
func (r *replayer) interval(s *scratch, from int, bounded bool) outcome {
	rec := r.rec
	var start *IntervalCheckpoint // nil: the initial state
	startSlot := uint64(0)
	if from >= 0 {
		start = &rec.Checkpoints[from]
		startSlot = start.Slot
	}
	var stop *IntervalCheckpoint // nil: run to convergence
	stopSlot := uint64(0)
	if bounded {
		stop = &rec.Checkpoints[from+1]
		stopSlot = stop.Slot
	}
	out := outcome{start: startSlot, end: stopSlot}

	// Establish the start state. A scratch holding a proven earlier
	// image of this recording rolls forward in place through the
	// intervening deltas — O(delta volume) — and only otherwise restores
	// the initial memory or a materialized image — O(footprint).
	memory := s.mem
	switch {
	case s.memRec == rec && s.memAt >= 0 && s.memAt <= from:
		for j := s.memAt + 1; j <= from; j++ {
			memory.ApplyDelta(rec.Checkpoints[j].MemDelta)
		}
	case start == nil:
		memory.Restore(rec.InitialMem)
	default:
		img, err := rec.MaterializeCheckpoint(from)
		if err != nil {
			out.err = err
			return out
		}
		memory.Restore(img)
	}
	// Unknown while the interval runs; re-proven by a passing end check.
	s.memRec, s.memAt = rec, memUnknown
	// A bounded interval starts at image from by construction, so its end
	// check against image from+1 reduces to the checkpoint's delta plus a
	// journal of the interval's own writes (Memory.EqualDelta) — no
	// materialization, no footprint-sized scan. An unbounded interval
	// checks FinalMemHash instead and needs no journal.
	if bounded {
		memory.BeginJournal()
	} else {
		memory.EndJournal()
	}

	var policy arbiter.Policy
	switch {
	case rec.Mode == PicoLog:
		var slots []arbiter.SlotRef
		for _, e := range rec.Slots.Entries() {
			if e.Slot >= startSlot {
				slots = append(slots, arbiter.SlotRef{Slot: e.Slot, Proc: e.Proc})
			}
		}
		for _, e := range rec.DMA.Entries() {
			if e.Slot >= startSlot {
				slots = append(slots, arbiter.SlotRef{Slot: e.Slot, Proc: bulksc.DMAProc(rec.NProcs)})
			}
		}
		sort.Slice(slots, func(a, b int) bool { return slots[a].Slot < slots[b].Slot })
		token := 0
		if start != nil {
			token = start.TokenAt
		}
		policy = arbiter.NewRoundRobinReplayAt(rec.NProcs, token, slots)
	case r.opts.UseStratified:
		// Entry points admit the stratified log only for a whole-run
		// replay: stratum boundaries do not align with checkpoint cuts.
		if rec.Stratified == nil {
			out.err = fmt.Errorf("core: recording has no stratified PI log")
			return out
		}
		policy = stratifier.NewStratumOrder(rec.Stratified, rec.NProcs)
	default:
		policy = arbiter.NewLogOrder(rec.PI.Entries()[startSlot:])
	}

	src := r.view.source()
	var resume *bulksc.Resume
	if start != nil {
		for p := range src.ioIdx {
			src.ioIdx[p] = start.Procs[p].IOConsumed
		}
		// Skip DMA entries already applied before the cut.
		for src.dmaIdx < len(src.dma) && src.dma[src.dmaIdx].Slot < startSlot {
			src.dmaIdx++
		}
		resume = &bulksc.Resume{Procs: start.Procs, BaseCommits: startSlot}
	}

	obs := &replayObserver{fp: newFingerprint(rec.NProcs), nprocs: rec.NProcs}
	eng := &bulksc.Engine{
		Cfg:            r.cfg,
		Progs:          r.progs,
		Mem:            memory,
		Obs:            obs,
		Policy:         policy,
		Replay:         src,
		Perturb:        r.opts.Perturb,
		ExactConflicts: r.opts.ExactConflicts,
		PicoLog:        rec.Mode == PicoLog,
		Parallel:       r.opts.Parallel,
		Trace:          r.opts.Trace,
		Resume:         resume,
		StopAtCommit:   stopSlot,
		MS:             s.ms,
	}
	if r.opts.Ctx != nil {
		eng.Cancel = r.opts.Ctx.Done()
	}
	st := eng.Run()
	if st.Cancelled {
		// Scratch state stays pool-safe: memRec/memAt were already marked
		// unknown above, and MemSys/Memory reset on the next reuse.
		out.err = cancelledErr(r.what, r.opts.Ctx)
		return out
	}

	// Rebuild the interval's I/O chains from the log's recorded
	// consumption ranges (see replayObserver): an interval is credited
	// with exactly the values the recording attributes to it, so a
	// bounded run's harmless run-ahead at its stop boundary cannot skew
	// the fingerprint, while corrupted values still mismatch. For an
	// unbounded run the range is exactly what it consumed.
	for p := 0; p < rec.NProcs; p++ {
		lo, hi := 0, src.ioIdx[p]
		if start != nil {
			lo = start.Procs[p].IOConsumed
		}
		if stop != nil {
			hi = stop.Procs[p].IOConsumed
		}
		var chain uint64
		for _, v := range r.view.io[p][lo:hi] {
			chain = mix(chain, v)
		}
		obs.fp.ioChain[p] = chain
	}

	// A bounded interval defers the memory hash: its end check verifies
	// the terminal memory against the stop checkpoint's delta and the
	// write journal, and hashes only to diagnose a mismatch.
	res := ReplayResult{Stats: st, Fingerprint: obs.fp.sum()}
	if stop == nil {
		res.MemHash = memory.Hash()
		out.end = startSlot + uint64(len(obs.stream))
	}
	out.res = res
	budget := r.cfg.MaxInstsOrDefault()

	if stop == nil {
		if !st.Converged {
			out.err = rec.stallError(obs, st, budget, startSlot)
			return out
		}
		wantFP, wantChains := rec.Fingerprint, rec.ProcChains
		if start != nil {
			wantFP, wantChains = start.Fingerprint, start.ProcChains
		}
		if d := rec.divergence(obs, res, startSlot, wantFP, wantChains, rec.FinalMemHash, !r.opts.UseStratified); d != nil {
			out.err = d
		}
		return out
	}
	if !st.Stopped {
		if !st.Converged {
			out.err = rec.stallError(obs, st, budget, startSlot)
			return out
		}
		// The machine halted before reaching the cut: fewer commits than
		// the recording demands of this interval.
		if d := rec.divergence(obs, res, startSlot, stop.IntervalFingerprint, stop.IntervalChains, res.MemHash, true); d != nil {
			out.err = d
			return out
		}
		out.err = &DivergenceError{Kind: "stall", Mode: rec.Mode,
			Slot: int64(startSlot) + int64(len(obs.stream)), Proc: -1, SeqID: -1, Interval: -1,
			Detail: fmt.Sprintf("interval replay halted after %d commits, before the checkpoint cut at %d",
				startSlot+uint64(len(obs.stream)), stop.Slot)}
		return out
	}
	if res.Fingerprint == stop.IntervalFingerprint && memory.EqualDelta(stop.MemDelta) {
		// The passed check proves memory == image from+1 exactly; record
		// that so this scratch's next interval can roll forward.
		s.memAt = from + 1
		return out
	}
	// Mismatch: materialize the full checkpoint image only now, to hash
	// both sides for the divergence report.
	img, err := rec.MaterializeCheckpoint(from + 1)
	if err != nil {
		out.err = err
		return out
	}
	res.MemHash = memory.Hash()
	out.res = res
	if d := rec.divergence(obs, res, startSlot, stop.IntervalFingerprint, stop.IntervalChains, mem.HashSnapshot(img), true); d != nil {
		out.err = d
	}
	return out
}

// scratch is reusable engine state: the timing hierarchy and the
// functional memory, both reset-on-reuse, pooled across intervals and
// across replays in scratchPool — engine construction, not interval
// execution, otherwise dominates replay of finely checkpointed
// recordings. Reuse is observation-equivalent to fresh state
// (MemSys.Reset, Memory.Restore). A pooled entry records the machine
// geometry it was built for and is reused only under an identical
// geometry (latency parameters may differ — the engine re-binds them on
// reuse).
//
// memRec/memAt track what the memory currently holds: checkpoint image
// memAt of recording memRec, or memUnknown. A bounded interval that
// passes its end check leaves the memory exactly equal to its stop
// checkpoint's image — that is what the check proves — so the next
// interval run on this scratch, always a later one under the segmented
// driver's work-queue assignment, rolls the memory forward by applying
// the intervening checkpoint deltas in place instead of restoring a
// materialized image from scratch.
type scratch struct {
	geom scratchGeom
	ms   *sim.MemSys
	mem  *mem.Memory

	memRec *Recording
	memAt  int
}

// memUnknown marks scratch memory with no provable image identity.
const memUnknown = -1

// scratchGeom is the part of a machine configuration a pooled cache
// hierarchy depends on structurally.
type scratchGeom struct {
	nprocs, l1b, l1w, l2b, l2w int
}

// scratchPool holds scratch entries across replays.
var scratchPool sync.Pool

// scratch takes engine state for r's machine from the pool, building a
// fresh entry when none with the same geometry is pooled.
func (r *replayer) scratch() *scratch {
	c := r.cfg
	geom := scratchGeom{c.NProcs, c.L1Bytes, c.L1Ways, c.L2Bytes, c.L2Ways}
	s, _ := scratchPool.Get().(*scratch)
	if s == nil || s.geom != geom {
		s = &scratch{geom: geom, ms: sim.NewMemSys(&c), mem: mem.New(), memAt: memUnknown}
	}
	return s
}

// noteDivergence marks a located replay divergence on the trace
// timeline (Seq/A carry ^0 when the position could not be narrowed to a
// chunk or commit slot).
func noteDivergence(sink *trace.Sink, t uint64, d *DivergenceError) {
	if sink == nil || d == nil {
		return
	}
	seq, slot := ^uint64(0), ^uint64(0)
	if d.SeqID >= 0 {
		seq = uint64(d.SeqID)
	}
	if d.Slot >= 0 {
		slot = uint64(d.Slot)
	}
	sink.Global().Emit(trace.Event{Time: t, Proc: int32(d.Proc), Kind: trace.Divergence, Seq: seq, A: slot})
}
