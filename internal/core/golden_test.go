package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"delorean/internal/bulksc"
	"delorean/internal/device"
	"delorean/internal/isa"
	"delorean/internal/rng"
	"delorean/internal/sim"
)

// TestGoldenV3Recording pins legacy v3 read compatibility: the
// committed fixture, written by the v3 writer before it was retired,
// must keep loading and describing exactly the same execution as a
// fresh recording of the same workload. A diff here means either the v3
// reader or the simulated execution changed.
func TestGoldenV3Recording(t *testing.T) {
	rec, progs, cfg := goldenRecording(t)
	data, err := os.ReadFile(filepath.Join("testdata", "golden_v3.dlrn"))
	if err != nil {
		t.Fatalf("missing golden v3 recording: %v", err)
	}

	// The committed v3 stream loads, carries the same stats and
	// verification hashes, and re-encodes to the same v4 bytes as the
	// live recording — the decode path is bit-faithful.
	got, err := ReadRecording(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("loading golden v3 recording: %v", err)
	}
	if got.Stats.Insts != rec.Stats.Insts || got.Stats.Chunks != rec.Stats.Chunks ||
		got.Stats.Cycles != rec.Stats.Cycles {
		t.Fatalf("golden stats (%d insts, %d chunks, %d cycles) differ from live (%d, %d, %d)",
			got.Stats.Insts, got.Stats.Chunks, got.Stats.Cycles,
			rec.Stats.Insts, rec.Stats.Chunks, rec.Stats.Cycles)
	}
	if got.Fingerprint != rec.Fingerprint || got.FinalMemHash != rec.FinalMemHash {
		t.Fatal("golden verification hashes differ from live recording")
	}
	var v4Live, v4Golden bytes.Buffer
	if _, err := rec.WriteTo(&v4Live); err != nil {
		t.Fatal(err)
	}
	if _, err := got.WriteTo(&v4Golden); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v4Live.Bytes(), v4Golden.Bytes()) {
		t.Fatal("golden v3 recording re-encodes to different v4 bytes than the live recording")
	}

	// And it still replays deterministically.
	res, err := Replay(got, ReplayConfig(cfg), progs, ReplayOptions{
		Perturb: bulksc.DefaultPerturb(7),
	})
	if err != nil {
		t.Fatalf("replay of golden recording: %v", err)
	}
	if !res.Matches(got) {
		t.Fatal("replay of golden v3 recording diverged")
	}
}

// TestGoldenV4RoundTrip: the same execution round-trips through the v4
// container — written, reloaded (at decode worker counts 1 and 4), and
// re-encoded byte-identically.
func TestGoldenV4RoundTrip(t *testing.T) {
	rec, _, _ := goldenRecording(t)
	var v4 bytes.Buffer
	if _, err := rec.WriteTo(&v4); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := ReadRecordingParallel(bytes.NewReader(v4.Bytes()), workers)
		if err != nil {
			t.Fatalf("load (workers=%d): %v", workers, err)
		}
		var re bytes.Buffer
		if _, err := got.WriteTo(&re); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), v4.Bytes()) {
			t.Fatalf("v4 round trip (workers=%d) is not byte-stable", workers)
		}
	}
}

// goldenRecording records the fixed workload behind the golden fixture:
// a deterministic 4-processor system workload with interrupts, DMA,
// checkpoints, and a stratified log, so every container section is
// exercised.
func goldenRecording(t *testing.T) (*Recording, []*isa.Program, sim.Config) {
	t.Helper()
	cfg := testConfig(4, 250)
	progs := replicateProgs(systemProgram(130), 4)
	devs := device.New(17)
	devs.GenerateInterrupts(rng.New(3), 4, 4_000, 2_000_000, 0.3)
	devs.GenerateDMA(rng.New(6), 0x900, 4, 8, 6_000, 2_000_000)
	rec, _ := record(t, cfg, OrderOnly, progs, devs, RecordOptions{
		CheckpointEvery: 30,
		StratifyMax:     3,
	})
	return rec, progs, cfg
}
