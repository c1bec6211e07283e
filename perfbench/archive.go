package main

import (
	"bytes"
	"fmt"

	"delorean"
)

// The checkpoint-archive fixture: radix at 8 processors with a system
// checkpoint every 20 chunk commits, a recording whose v4 container
// (about 1.2 MB, 94 checkpoints) makes the codec dominate an op. The
// kernel's size is fixed at this scale. Every codec call uses one
// worker.
const (
	archiveKernel     = "radix"
	archiveProcs      = 8
	archiveScale      = 20000
	archiveCheckpoint = 20
)

type archiveFixture struct {
	cfg   delorean.Config
	w     *delorean.Workload
	rec   *delorean.Recording
	bytes []byte             // the reference container
	saved delorean.ExecStats // the statistics a loaded container reports
	last  delorean.ExecStats // verdict stats of the last interval's replay
	ex    exactStats
}

// setupArchive records the checkpointed fixture, checks that it replays
// deterministically, and keeps its container and last-interval verdict
// as the references every op must reproduce.
func setupArchive(seed uint64, o *opTrace) (fixture, error) {
	f := &archiveFixture{cfg: delorean.DefaultConfig()}
	f.cfg.Processors = archiveProcs
	f.cfg.CheckpointEvery = archiveCheckpoint
	rec, err := recordFixture(o, f.cfg, archiveKernel, archiveProcs, archiveScale, seed)
	if err != nil {
		return nil, err
	}
	f.rec = rec
	f.w = delorean.NewWorkload(archiveKernel, archiveProcs, archiveScale, seed)
	if err := replayChecked(o, rec, seed|1, rec.Stats()); err != nil {
		return nil, err
	}
	if f.ex, f.bytes, err = measureExact(o, rec, f.cfg, f.w); err != nil {
		return nil, err
	}
	loaded, err := delorean.LoadRecordingParallel(bytes.NewReader(f.bytes), f.cfg, f.w, 1)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	f.saved = loaded.Stats()
	res, err := rec.ReplayFromCheckpoint(rec.Checkpoints()-1, delorean.ReplayWith{PerturbSeed: seed | 1})
	if err != nil {
		return nil, fmt.Errorf("interval replay: %w", err)
	}
	if !res.Deterministic {
		return nil, fmt.Errorf("interval replay not deterministic: %+v", res.Divergence)
	}
	f.last = res.Stats
	return f, nil
}

// op saves the recording, loads the container eagerly, indexes it,
// materializes the index and replays its last checkpoint interval.
func (f *archiveFixture) op(c *client, o *opTrace) (string, uint64, error) {
	var buf bytes.Buffer
	if err := saveTraced(o, f.rec, &buf); err != nil {
		return "op", 0, err
	}
	if !bytes.Equal(buf.Bytes(), f.bytes) {
		return "op", 0, fmt.Errorf("saved %d bytes that differ from the %d-byte reference", buf.Len(), len(f.bytes))
	}
	if err := f.check(o, buf.Bytes(), c.perturbSeed()); err != nil {
		return "op", 0, err
	}
	return "op", f.last.Instructions, nil
}

// check loads data both ways and verifies what each path decoded.
func (f *archiveFixture) check(o *opTrace, data []byte, perturb uint64) error {
	var eager *delorean.Recording
	if err := o.call("core.load_eager", func() (err error) {
		eager, err = delorean.LoadRecordingParallel(bytes.NewReader(data), f.cfg, f.w, 1)
		return err
	}); err != nil {
		return fmt.Errorf("eager load: %w", err)
	}
	if eager.Stats() != f.saved || eager.Checkpoints() != f.ex.checkpoints {
		return fmt.Errorf("eager load decoded %+v with %d checkpoints", eager.Stats(), eager.Checkpoints())
	}
	var idx *delorean.Recording
	if err := o.call("core.index", func() (err error) {
		idx, err = delorean.IndexRecording(data, f.cfg, f.w)
		return err
	}); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	if err := o.call("core.materialize", func() error { return idx.Materialize(1) }); err != nil {
		return fmt.Errorf("materialize: %w", err)
	}
	o.work(uint64(idx.MaterializedSizeEstimate()))
	var res delorean.ReplayResult
	if err := o.call("core.replay_ckpt", func() (err error) {
		res, err = idx.ReplayFromCheckpoint(idx.Checkpoints()-1, delorean.ReplayWith{PerturbSeed: perturb})
		return err
	}); err != nil {
		return fmt.Errorf("interval replay: %w", err)
	}
	o.work(res.Stats.Instructions)
	return checkReplay(res, f.last)
}

func (f *archiveFixture) exact() exactStats { return f.ex }
func (f *archiveFixture) close()            {}
