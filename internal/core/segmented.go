package core

import (
	"delorean/internal/bulksc"
	"delorean/internal/chunk"
	"delorean/internal/runner"
	"delorean/internal/trace"
)

// Segmented (checkpoint-partitioned) parallel replay.
//
// A recording with k periodic checkpoints splits into k+1 independent
// intervals: [start, cut_0), [cut_0, cut_1), …, [cut_{k-1}, end). Each
// is one run of the interval replayer (replayer.interval) — the
// checkpoint supplies its starting memory image and per-processor resume
// state, the log suffix supplies its ordering and inputs, and the
// engine's StopAtCommit halts it exactly at the next cut — so the
// intervals fan out across a bounded worker pool and replay
// concurrently. The whole-recording verdict is stitched from the
// per-interval checks:
//
//   - interval i < k must stop cleanly at cut_i with the recorded
//     interval fingerprint (IntervalFingerprint, covering exactly
//     [cut_{i-1}, cut_i)) and a memory image matching checkpoint i's;
//   - the final interval is ReplayFromCheckpoint(k-1): it must converge
//     with the last checkpoint's suffix fingerprint and the recording's
//     final memory hash.
//
// Success therefore implies exactly what a sequential Replay verifies —
// every committed chunk stream, input stream and the final memory state
// — and failure is attributed to the earliest diverging interval
// (DivergenceError.Interval), independent of worker count or
// scheduling: workers never share mutable state (each has its own
// engine, memory and log cursors; materialized checkpoint images are
// shared read-only), so each interval's outcome is a pure function of
// the recording, and the earliest failing index is deterministic.
//
// Safe under concurrent segmented replays of the same recording: each
// pooled scratch is exclusively owned while checked out, the log view
// holds per-call cursors over the read-only logs, and checkpoint
// materialization goes through the recording's locked LRU.
func (r *replayer) segmented() (ReplayResult, error) {
	rec := r.rec
	k := len(rec.Checkpoints)
	sink := r.opts.Trace
	w := *r
	w.opts.Trace = nil // workers run traceless; the spans are narrated below
	w.what = "segmented replay"
	outs, _ := runner.Map(r.opts.ReplayParallel, k+1, func(i int) (outcome, error) {
		// Queued intervals behind a cancellation return fast without
		// touching an engine; running ones stop via Engine.Cancel. Either
		// way the interval reports the context's error, and error
		// selection below still picks the earliest interval's.
		if ctx := w.opts.Ctx; ctx != nil && ctx.Err() != nil {
			return outcome{err: cancelledErr(w.what, ctx)}, nil
		}
		s := w.scratch()
		out := w.interval(s, i-1, i < k)
		scratchPool.Put(s)
		return out, nil
	})

	// Narrate the segment spans (and the earliest divergence, if any)
	// onto the timeline serially, in interval order.
	if sink != nil {
		g := sink.Global()
		for i, o := range outs {
			ok := uint64(0)
			if o.err == nil {
				ok = 1
			}
			g.Emit(trace.Event{Time: o.start, Proc: -1, Kind: trace.ReplaySegment,
				Seq: uint64(i), A: o.start, B: o.end, C: ok})
		}
	}
	for i, o := range outs {
		if o.err != nil {
			if d, ok := o.err.(*DivergenceError); ok {
				d.Interval = i
			}
			return o.verdict(sink)
		}
	}

	// Every interval reproduced its slice of the recording, so the
	// replay as a whole reproduced the recording: report the recorded
	// fingerprint and memory hash (interval fingerprint chains start
	// fresh at each cut and do not compose into the whole-run chain).
	// Stats aggregate over intervals in index order — identical at every
	// worker count, but not cycle-comparable to a sequential replay
	// (each interval's makespan starts at zero).
	agg := bulksc.Stats{
		Converged: true,
		TruncBy:   make(map[chunk.TruncReason]uint64),
		PerProc:   make([]bulksc.ProcStats, rec.NProcs),
	}
	for _, o := range outs {
		st := o.res.Stats
		agg.Cycles += st.Cycles
		agg.Insts += st.Insts
		agg.WastedInsts += st.WastedInsts
		agg.MemOps += st.MemOps
		agg.IOOps += st.IOOps
		agg.Interrupts += st.Interrupts
		agg.DMAs += st.DMAs
		agg.Chunks += st.Chunks
		agg.Squashes += st.Squashes
		agg.SpuriousSquashes += st.SpuriousSquashes
		agg.StallCycles += st.StallCycles
		agg.SlotStallCycles += st.SlotStallCycles
		agg.TrafficBytes += st.TrafficBytes
		for r, c := range st.TruncBy {
			agg.TruncBy[r] += c
		}
		for p := range st.PerProc {
			agg.PerProc[p].Cycles += st.PerProc[p].Cycles
			agg.PerProc[p].Insts += st.PerProc[p].Insts
			agg.PerProc[p].WastedInsts += st.PerProc[p].WastedInsts
			agg.PerProc[p].Chunks += st.PerProc[p].Chunks
			agg.PerProc[p].Squashes += st.PerProc[p].Squashes
			agg.PerProc[p].SlotStallCycles += st.PerProc[p].SlotStallCycles
		}
	}
	return ReplayResult{Stats: agg, Fingerprint: rec.Fingerprint, MemHash: rec.FinalMemHash}, nil
}
