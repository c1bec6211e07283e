package main

import (
	"bytes"
	"fmt"

	"delorean"
)

// The splash-engine fixture: ocean, a dense-sharing SPLASH-like kernel,
// on the paper's Table 5 machine (8 processors) with the sequential
// engine. Its size is fixed at this scale.
const (
	engineKernel = "ocean"
	engineProcs  = 8
	engineScale  = 20000
)

type engineFixture struct {
	seed uint64
	cfg  delorean.Config
	ref  delorean.ExecStats // the reference recording's statistics
	ex   exactStats
}

// setupEngine records the kernel once as the reference every op must
// reproduce, and checks that the reference replays deterministically.
func setupEngine(seed uint64, o *opTrace) (fixture, error) {
	f := &engineFixture{seed: seed, cfg: delorean.DefaultConfig()}
	f.cfg.Processors = engineProcs
	rec, err := recordFixture(o, f.cfg, engineKernel, engineProcs, engineScale, seed)
	if err != nil {
		return nil, err
	}
	f.ref = rec.Stats()
	if err := replayChecked(o, rec, seed|1, f.ref); err != nil {
		return nil, err
	}
	if f.ex, _, err = measureExact(o, rec, f.cfg, delorean.NewWorkload(engineKernel, engineProcs, engineScale, seed)); err != nil {
		return nil, err
	}
	return f, nil
}

// op generates the workload, records it and replays the recording
// under a perturbation seed no other op uses.
func (f *engineFixture) op(c *client, o *opTrace) (string, uint64, error) {
	rec, err := recordFixture(o, f.cfg, engineKernel, engineProcs, engineScale, f.seed)
	if err != nil {
		return "op", 0, err
	}
	if got := rec.Stats(); got != f.ref {
		return "op", 0, fmt.Errorf("record stats %+v, reference %+v", got, f.ref)
	}
	if err := replayChecked(o, rec, c.perturbSeed(), f.ref); err != nil {
		return "op", 0, err
	}
	return "op", 2 * f.ref.Instructions, nil
}

func (f *engineFixture) exact() exactStats { return f.ex }
func (f *engineFixture) close()            {}

// recordFixture generates a built-in workload and records it in
// OrderOnly mode.
func recordFixture(o *opTrace, cfg delorean.Config, name string, procs, scale int, seed uint64) (*delorean.Recording, error) {
	var w *delorean.Workload
	o.call("workload.gen", func() error {
		w = delorean.NewWorkload(name, procs, scale, seed)
		return nil
	})
	var rec *delorean.Recording
	if err := o.call("core.record", func() (err error) {
		rec, err = delorean.Record(cfg, delorean.OrderOnly, w)
		return err
	}); err != nil {
		return nil, err
	}
	o.work(rec.Stats().Instructions)
	return rec, nil
}

// replayChecked replays rec in full and checks the verdict against the
// recording's statistics.
func replayChecked(o *opTrace, rec *delorean.Recording, perturb uint64, ref delorean.ExecStats) error {
	var res delorean.ReplayResult
	if err := o.call("core.replay", func() (err error) {
		res, err = rec.Replay(delorean.ReplayWith{PerturbSeed: perturb})
		return err
	}); err != nil {
		return err
	}
	o.work(res.Stats.Instructions)
	return checkReplay(res, ref)
}

// checkReplay checks that a replay verdict is deterministic and
// reproduced the recorded execution. Cycles and squashes legitimately
// differ under perturbed timing; the committed work must not.
func checkReplay(res delorean.ReplayResult, ref delorean.ExecStats) error {
	if !res.Deterministic {
		return fmt.Errorf("replay not deterministic: %+v", res.Divergence)
	}
	got := res.Stats
	if got.Instructions != ref.Instructions || got.Chunks != ref.Chunks ||
		got.Interrupts != ref.Interrupts || got.IOOps != ref.IOOps || got.DMAs != ref.DMAs {
		return fmt.Errorf("replay stats %+v do not match recording %+v", got, ref)
	}
	return nil
}

// measureExact saves rec as a v4 container and indexes it, to size
// the container and its materialized form. It returns the container.
func measureExact(o *opTrace, rec *delorean.Recording, cfg delorean.Config, w *delorean.Workload) (exactStats, []byte, error) {
	var buf bytes.Buffer
	if err := saveTraced(o, rec, &buf); err != nil {
		return exactStats{}, nil, err
	}
	idx, err := delorean.IndexRecording(buf.Bytes(), cfg, w)
	if err != nil {
		return exactStats{}, nil, fmt.Errorf("index: %w", err)
	}
	st := rec.Stats()
	return exactStats{
		cycles: st.Cycles, insts: st.Instructions, chunks: st.Chunks, squashes: st.Squashes,
		logBits: rec.LogBits(true), containerBytes: buf.Len(),
		checkpoints: rec.Checkpoints(), materializedBytes: idx.MaterializedSizeEstimate(),
	}, buf.Bytes(), nil
}

// saveTraced saves rec with one codec worker.
func saveTraced(o *opTrace, rec *delorean.Recording, buf *bytes.Buffer) error {
	if err := o.call("core.save", func() error { return rec.SaveParallel(buf, 1) }); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	o.work(uint64(buf.Len()))
	return nil
}

// add sums the exact figures of several fixtures.
func (e exactStats) add(x exactStats) exactStats {
	e.cycles += x.cycles
	e.insts += x.insts
	e.chunks += x.chunks
	e.squashes += x.squashes
	e.logBits += x.logBits
	e.containerBytes += x.containerBytes
	e.checkpoints += x.checkpoints
	e.materializedBytes += x.materializedBytes
	return e
}
