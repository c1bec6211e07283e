package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func shortRun(t *testing.T, name string, seed uint64, trace bool) report {
	t.Helper()
	rep, _, err := run(options{workload: name, seed: seed, seconds: 0.3, trace: trace})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

func checkNames(t *testing.T, workload string, rep report, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		var got []string
		for n := range rep.Metrics {
			got = append(got, n)
		}
		sort.Strings(got)
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d: %s", workload, len(got), len(want), strings.Join(got, " "))
	}
	for _, m := range want {
		if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", workload, m.Name, got, m.Unit)
		}
	}
}

// TestShortRuns runs every workload briefly: untraced twice on one seed
// and traced once. Every metric of BENCHMARK.json must be printed with
// its unit, no check may fail, and the exact metrics must repeat.
func TestShortRuns(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			a := shortRun(t, w.Name, 7, false)
			checkNames(t, w.Name, a, c.EndToEnd)
			for _, m := range c.EndToEnd {
				if a.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, a.Metrics[m.Name].Value)
				}
			}
			b := shortRun(t, w.Name, 7, false)
			for _, name := range []string{"sim_cycles", "log_bits_per_proc_kinst", "container_bytes"} {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s differs across runs of one seed: %v then %v", name, a.Metrics[name], b.Metrics[name])
				}
			}
			tr := shortRun(t, w.Name, 7, true)
			checkNames(t, w.Name, tr, c.PerLayer)
			if v := tr.Metrics["error_rate"].Value; v != 0 {
				t.Errorf("error_rate = %v", v)
			}
		})
	}
}

// faulty wraps a workload's set-up with a corruption of its fixture.
func faulty(name string, corrupt func(fixture)) workload {
	wl := workloads[name]
	setup := wl.setup
	wl.setup = func(seed uint64, o *opTrace) (fixture, error) {
		f, err := setup(seed, o)
		if err == nil {
			corrupt(f)
		}
		return f, err
	}
	return wl
}

// TestChecksCatchInjectedFaults corrupts one reference output per
// workload and expects the run to report the failing ops.
func TestChecksCatchInjectedFaults(t *testing.T) {
	cases := map[string]workload{
		"splash-engine": faulty("splash-engine", func(f fixture) {
			f.(*engineFixture).ref.Cycles++
		}),
		"checkpoint-archive": faulty("checkpoint-archive", func(f fixture) {
			a := f.(*archiveFixture)
			a.bytes = append([]byte(nil), a.bytes...)
			a.bytes[len(a.bytes)/2] ^= 1
		}),
		"serve-mixed": faulty("serve-mixed", func(f fixture) {
			s := f.(*serveFixture)
			h := &s.hot[0]
			h.body = append([]byte(nil), h.body...)
			h.body[len(h.body)/2] ^= 1
		}),
	}
	for name, wl := range cases {
		t.Run(name, func(t *testing.T) {
			rep, _, err := runWorkload(wl, options{workload: name, seed: 3, seconds: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Correct || rep.Failed == 0 {
				t.Fatalf("corrupted reference not caught: correct=%v failed=%d of %d", rep.Correct, rep.Failed, rep.Attempted)
			}
		})
	}
}

// TestCorruptContainerRejected flips one byte of the archived
// container; loading it must fail.
func TestCorruptContainerRejected(t *testing.T) {
	f, err := setupArchive(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := f.(*archiveFixture)
	data := append([]byte(nil), a.bytes...)
	data[len(data)/3] ^= 0x40
	if err := a.check(nil, data, 5); err == nil {
		t.Fatal("a corrupted container passed the checks")
	}
	if err := a.check(nil, a.bytes, 5); err != nil {
		t.Fatalf("the reference container failed the checks: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 0, Parent: -1, Start: 0, End: 100},
		{Op: 1, ID: 1, Parent: 0, Start: 10, End: 30},
		{Op: 1, ID: 2, Parent: 0, Start: 25, End: 60},
		{Op: 2, ID: 0, Parent: -1, Start: 0, End: 50},
	}
	selfTimes(spans)
	for i, want := range []int64{50, 20, 35, 50} {
		if spans[i].Self != want {
			t.Errorf("span %d self = %d, want %d", i, spans[i].Self, want)
		}
	}
}
