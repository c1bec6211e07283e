package diffcheck

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"delorean/internal/core"
	"delorean/internal/mem"
	"delorean/internal/sim"
)

// seedRecording is one small real recording as container bytes: the v4
// stream WriteTo emits today and the committed v3 fixture of the same
// recording.
type seedRecording struct {
	mode   core.Mode
	v4, v3 []byte
}

// v3Fixtures names the committed v3 container of each seed recording.
// The fixtures were written by the v3 writer before it was retired; they
// pin legacy read compatibility now that nothing writes v3.
var v3Fixtures = map[core.Mode]string{
	core.OrderSize: "seed_v3_ordersize.dlrn",
	core.OrderOnly: "seed_v3_orderonly.dlrn",
	core.PicoLog:   "seed_v3_picolog.dlrn",
}

// seedRecordings records one small real recording per mode.
func seedRecordings(tb testing.TB) []seedRecording {
	tb.Helper()
	cfg := sim.Default8().WithProcs(2).WithChunkSize(60)
	cfg.MaxInsts = 5_000_000
	gen := DefaultGen()
	gen.Iters = 8
	progs := GenPrograms(3, 2, gen)
	var out []seedRecording
	for _, mode := range []core.Mode{core.OrderSize, core.OrderOnly, core.PicoLog} {
		// CheckpointEvery populates the checkpoint section, so mutation
		// reaches the delta-checkpoint decoder too.
		rec, err := core.Record(cfg, mode, progs, mem.New(), nil,
			core.RecordOptions{TruncSeed: 3, CheckpointEvery: 4})
		if err != nil {
			tb.Fatalf("seed recording (%v): %v", mode, err)
		}
		var buf bytes.Buffer
		if _, err := rec.WriteTo(&buf); err != nil {
			tb.Fatalf("serialize seed (%v): %v", mode, err)
		}
		v3, err := os.ReadFile(filepath.Join("testdata", v3Fixtures[mode]))
		if err != nil {
			tb.Fatalf("v3 fixture (%v): %v", mode, err)
		}
		out = append(out, seedRecording{mode: mode, v4: buf.Bytes(), v3: v3})
	}
	return out
}

// seedRecordingBytes returns both container generations of every seed
// recording; the fuzz targets below use them as corpus seeds so
// mutation starts from well-formed containers rather than random noise,
// and explores both the v4 and the legacy v3 decoder.
func seedRecordingBytes(f *testing.F) [][]byte {
	f.Helper()
	var out [][]byte
	for _, s := range seedRecordings(f) {
		out = append(out, s.v4, s.v3)
	}
	return out
}

// TestV3Fixtures: each committed v3 container loads and re-encodes to
// exactly the live v4 bytes of the same recording, through both the
// eager loader and the index path, so the legacy decoder stays
// bit-faithful.
func TestV3Fixtures(t *testing.T) {
	for _, s := range seedRecordings(t) {
		t.Run(s.mode.String(), func(t *testing.T) {
			eager, err := core.ReadRecording(bytes.NewReader(s.v3))
			if err != nil {
				t.Fatalf("loading v3 fixture: %v", err)
			}
			indexed, err := core.IndexRecording(s.v3)
			if err != nil {
				t.Fatalf("indexing v3 fixture: %v", err)
			}
			for name, rec := range map[string]*core.Recording{"eager": eager, "indexed": indexed} {
				var re bytes.Buffer
				if _, err := rec.WriteTo(&re); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(re.Bytes(), s.v4) {
					t.Fatalf("%s load of the v3 fixture re-encodes to different v4 bytes", name)
				}
			}
		})
	}
}

// corruptFrameSeeds derives hostile variants from well-formed streams:
// truncated tails and single-byte flips that land in v4 frame headers
// and CRC-protected payloads. They seed the corpus so the fuzzer starts
// at the interesting failure surface instead of discovering it.
func corruptFrameSeeds(seeds [][]byte) [][]byte {
	var out [][]byte
	for _, b := range seeds {
		if len(b) < 32 {
			continue
		}
		out = append(out, b[:len(b)/2], b[:len(b)-1])
		for _, off := range []int{len(b) / 4, len(b) / 2, len(b) - 8} {
			mut := append([]byte(nil), b...)
			mut[off] ^= 0x40
			out = append(out, mut)
		}
	}
	return out
}

// FuzzRecordingDeserialize: an arbitrary byte stream fed to the
// recording loader must either load cleanly or fail with an
// ErrCorruptLog-wrapped error — never panic, never return a partial
// Recording. The eager loader and the serving path (index, then
// materialize on a worker pool) must agree on accept/reject and decode
// the same recording, also after a release and rematerialization. A
// stream that does load must survive a serialize→reload round trip
// byte-identically (the loader and writer agree on the format).
func FuzzRecordingDeserialize(f *testing.F) {
	seeds := seedRecordingBytes(f)
	for _, b := range seeds {
		f.Add(b)
	}
	for _, b := range corruptFrameSeeds(seeds) {
		f.Add(b)
	}
	f.Add([]byte("DLRN"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := core.ReadRecordingParallel(bytes.NewReader(data), 1)
		lazy, lerr := core.IndexRecording(data)
		if lerr == nil {
			lerr = lazy.EnsureCheckpoints(4)
		}
		if (err == nil) != (lerr == nil) {
			t.Fatalf("eager and indexed loaders disagree: %v vs %v", err, lerr)
		}
		if err != nil {
			if !errors.Is(err, core.ErrCorruptLog) {
				t.Fatalf("loader error does not wrap ErrCorruptLog: %v", err)
			}
			if !errors.Is(lerr, core.ErrCorruptLog) {
				t.Fatalf("indexed loader error does not wrap ErrCorruptLog: %v", lerr)
			}
			return
		}
		var first bytes.Buffer
		if _, err := rec.WriteTo(&first); err != nil {
			t.Fatalf("re-serialize of loaded recording: %v", err)
		}
		reserialize := func(pass string) {
			var buf bytes.Buffer
			if _, err := lazy.WriteTo(&buf); err != nil {
				t.Fatalf("re-serialize of %s recording: %v", pass, err)
			}
			if !bytes.Equal(first.Bytes(), buf.Bytes()) {
				t.Fatalf("eager and %s loads re-serialize differently", pass)
			}
		}
		reserialize("indexed")
		lazy.ReleaseLogs()
		if err := lazy.EnsureCheckpoints(1); err != nil {
			t.Fatalf("rematerialize after release: %v", err)
		}
		reserialize("rematerialized")
		rec2, err := core.ReadRecording(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reload of re-serialized recording: %v", err)
		}
		var second bytes.Buffer
		if _, err := rec2.WriteTo(&second); err != nil {
			t.Fatalf("second serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("serialize→reload→serialize is not a fixed point")
		}
	})
}

// FuzzReplayRecording: any recording the loader accepts must be safe to
// replay against an unrelated program — the engine may (and usually
// will) report a typed divergence or corruption error, but it must not
// panic, hang, or silently return a matching result for a workload the
// recording does not describe.
func FuzzReplayRecording(f *testing.F) {
	for _, b := range seedRecordingBytes(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := core.ReadRecording(bytes.NewReader(data))
		if err != nil {
			return
		}
		if rec.NProcs > 8 || rec.ChunkSize > 4096 {
			return // keep the per-input cost bounded
		}
		gen := DefaultGen()
		gen.Iters = 8
		progs := GenPrograms(1, rec.NProcs, gen)
		cfg := sim.Default8().WithProcs(rec.NProcs).WithChunkSize(rec.ChunkSize)
		cfg.MaxInsts = 200_000
		replay := func(opts core.ReplayOptions) {
			res, rerr := core.Replay(rec, core.ReplayConfig(cfg), progs, opts)
			if rerr == nil {
				// nil error means replay claims full reproduction — the
				// self-verification invariant. A clean non-match would be a
				// silent wrong result, the one outcome the harness forbids.
				if !res.Matches(rec) {
					t.Fatal("replay returned nil error but result does not match recording")
				}
				return
			}
			var div *core.DivergenceError
			if !errors.As(rerr, &div) && !errors.Is(rerr, core.ErrCorruptLog) {
				t.Fatalf("untyped replay error: %v", rerr)
			}
		}
		replay(core.ReplayOptions{})
		if len(rec.Checkpoints) > 0 {
			// Segmented replay must uphold the same invariants when the
			// fuzzer smuggles a checkpoint section past the loader.
			replay(core.ReplayOptions{ReplayParallel: 2})
		}
	})
}
