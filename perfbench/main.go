// Command perfbench is the repository's benchmark: it runs one workload
// of record, archive or serve operations for a fixed time, checks every
// output, and prints the metrics as one JSON line.
//
//	perfbench --workload splash-engine --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// records a span around every public call it makes into the program
// (every other op is traced, so the run also measures the tracing
// overhead) and prints the per-layer metrics; the spans are written
// under --out. The last stdout line is the result; the line before it
// records the run environment. The exit code is 0 only when every
// output check passed. See README.md for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setups is how many times a run builds its fixture; setup_s is the
// median.
const setups = 5

// workload is one benchmark workload: how many closed-loop clients
// drive it and how its fixture is built.
type workload struct {
	clients int
	setup   func(seed uint64, o *opTrace) (fixture, error)
}

var workloads = map[string]workload{
	"splash-engine":      {clients: 1, setup: setupEngine},
	"checkpoint-archive": {clients: 1, setup: setupArchive},
	"serve-mixed":        {clients: serveClients, setup: setupServe},
}

// fixture is the state a workload's ops run against.
type fixture interface {
	// op runs one operation for c and checks its outputs. It returns the
	// op's kind, the simulated instructions it committed, and an error
	// when the op failed or a check did not hold.
	op(c *client, o *opTrace) (kind string, insts uint64, err error)
	// exact returns the fixture's simulated, seed-independent figures.
	exact() exactStats
	close()
}

// layerProber is a fixture with per-layer metrics of its own. A traced
// run calls it after the measured phase.
type layerProber interface {
	probeLayers(tr *tracer, samples []sample) (map[string]float64, error)
}

// client is one closed-loop client: it sends its next op only after the
// previous one has completed.
type client struct {
	id  int
	i   int        // index of the current op within this client
	rng *rand.Rand // draws the op's inputs from the seed
}

// perturbSeed is a nonzero replay perturbation seed that no other op
// of the run uses.
func (c *client) perturbSeed() uint64 {
	return 1<<62 | uint64(c.id)<<40 | uint64(c.i)
}

// newRand returns the seed's random stream number stream.
func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// exactStats are figures of the simulated machine and its recordings.
// They depend only on the fixture, so any host-only change leaves them
// identical.
type exactStats struct {
	cycles, insts     uint64 // recorded executions, summed over fixtures
	chunks, squashes  uint64
	logBits           int // compressed memory-ordering log
	containerBytes    int // v4 container
	checkpoints       int
	materializedBytes int64
}

type sample struct {
	kind   string
	client int
	at     time.Duration // when the op started, from the start of the measured phase
	dur    time.Duration
	insts  uint64
	traced bool
	err    error
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	var opts options
	var trace int
	flag.StringVar(&opts.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&opts.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&opts.seconds, "seconds", 40, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&opts.out, "out", ".bench_build/perfbench", "directory for the result and span files")
	flag.Parse()
	opts.trace = trace == 1
	if trace != 0 && trace != 1 || opts.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	env := environment(opts)
	rep, spans, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := save(opts, env, rep, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	envLine, _ := json.Marshal(map[string]any{"env": env})
	line, _ := json.Marshal(rep)
	fmt.Printf("%s\n%s\n", envLine, line)
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// run sets the workload up, measures it and returns its report, plus
// the spans of a traced run.
func run(opts options) (report, []span, error) {
	wl, found := workloads[opts.workload]
	if !found {
		return report{}, nil, fmt.Errorf("unknown workload %q (have %s)", opts.workload, strings.Join(workloadNames(), ", "))
	}
	return runWorkload(wl, opts)
}

func runWorkload(wl workload, opts options) (report, []span, error) {
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	f, setupTimes, err := setUp(wl, opts.seed, tr)
	if err != nil {
		return report{}, nil, err
	}
	defer f.close()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := time.Duration(opts.seconds * float64(time.Second))
	samples, cpuMarks, rss := measure(f, wl.clients, opts.seed, d, tr)
	runtime.ReadMemStats(&m1)

	rep := report{Attempted: len(samples), Metrics: map[string]metric{}}
	var ok []sample
	for _, s := range samples {
		if s.err != nil {
			if rep.Failed < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s op failed: %v\n", s.kind, s.err)
			}
			rep.Failed++
			continue
		}
		ok = append(ok, s)
	}
	rep.Correct = rep.Failed == 0 && len(ok) > 0
	if len(ok) == 0 {
		return rep, nil, nil // nothing completed to measure
	}
	var values map[string]float64
	var spans []span
	if tr == nil {
		values = endToEnd(ok, d, cpuMarks, rss, setupTimes, f.exact())
	} else {
		var extra map[string]float64
		if p, isProber := f.(layerProber); isProber {
			if extra, err = p.probeLayers(tr, samples); err != nil {
				return report{}, nil, err
			}
		}
		spans = tr.snapshot()
		values = perLayer(spans, samples, f.exact(), m1, m0, extra)
	}
	units := endToEndUnits
	if tr != nil {
		units = perLayerUnits
	}
	for name, v := range values {
		rep.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	return rep, spans, nil
}

// setUp builds the fixture `setups` times, checks that every build has
// the same exact figures, and returns the last build and the times.
func setUp(wl workload, seed uint64, tr *tracer) (fixture, []time.Duration, error) {
	var f fixture
	var times []time.Duration
	for k := 0; k < setups; k++ {
		start := time.Now()
		o := tr.begin("setup")
		g, err := wl.setup(seed, o)
		o.finish("")
		if err != nil {
			if f != nil {
				f.close()
			}
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start))
		if f != nil {
			f.close()
			if f.exact() != g.exact() {
				g.close()
				return nil, nil, fmt.Errorf("set-up is not deterministic: %+v then %+v", f.exact(), g.exact())
			}
		}
		f = g
	}
	return f, times, nil
}

// sampleBlock is how many samples a client stores per block. A
// serve-mixed client logs about 25,000 ops in a run; growing one slice
// by doubling would copy it, and the copies would show in peak_rss_mb.
const sampleBlock = 1024

// measure drives the fixture from closed-loop clients until d has
// passed. It returns every op's sample, the process CPU time at the
// start and end of each of the run's windows, and the peak resident set
// size in bytes by the end of the phase, before the samples are
// gathered. In a traced run every other op of each client is traced.
func measure(f fixture, clients int, seed uint64, d time.Duration, tr *tracer) ([]sample, []time.Duration, float64) {
	n := windowCount(d)
	cpuMarks := make([]time.Duration, n+1)
	cpuMarks[0] = cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	marked := make(chan struct{})
	go func() {
		defer close(marked)
		for k := 1; k <= n; k++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(k) / time.Duration(n))))
			cpuMarks[k] = cpuTime()
		}
	}()
	per := make([][][]sample, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &client{id: c, rng: newRand(seed, uint64(c)+1)}
			for ; time.Now().Before(deadline); cl.i++ {
				t := time.Now()
				var o *opTrace
				if cl.i%2 == 0 {
					o = tr.begin("op")
				}
				kind, insts, err := f.op(cl, o)
				o.finish("op:" + kind)
				if b := len(per[c]) - 1; b < 0 || len(per[c][b]) == sampleBlock {
					per[c] = append(per[c], make([]sample, 0, sampleBlock))
				}
				b := len(per[c]) - 1
				per[c][b] = append(per[c][b], sample{kind: kind, client: c, at: t.Sub(start), dur: time.Since(t), insts: insts, traced: o != nil, err: err})
			}
		}()
	}
	wg.Wait()
	<-marked
	rss := peakRSS()
	var all []sample
	for _, blocks := range per {
		for _, ss := range blocks {
			all = append(all, ss...)
		}
	}
	return all, cpuMarks, rss
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// environment describes the host and inputs of a run.
func environment(opts options) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":   opts.workload,
		"seed":       opts.seed,
		"seconds":    opts.seconds,
		"trace":      opts.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     sourceDigest("."),
	}
}

// sourceDigest hashes the checkout's Go sources and module files, so a
// result names the code it measured even where no git metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		fh, err := os.Open(path)
		if err != nil {
			return err
		}
		defer fh.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, fh)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// save writes the run's environment and report, and a traced run's
// spans, under opts.out.
func save(opts options, env map[string]any, rep report, spans []span) error {
	trace := 0
	if opts.trace {
		trace = 1
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", opts.workload, opts.seed, trace)
	if spans != nil {
		if err := writeSpans(opts.out, base+".spans.json", spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	data, err := json.MarshalIndent(map[string]any{"env": env, "result": rep}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opts.out, base+".json"), data, 0o644)
}
