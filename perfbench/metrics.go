package main

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEndUnits names the metrics an untraced run prints, with their
// units; perLayerUnits those of a traced run. BENCHMARK.json lists the
// same names.
var endToEndUnits = map[string]string{
	"setup_s":                 "s",
	"ops_s":                   "1/s",
	"op_p50_ms":               "ms",
	"cpu_ms_per_op":           "ms",
	"peak_rss_mb":             "MB",
	"sim_minst_s":             "Minst/s",
	"sim_cycles":              "cycles",
	"log_bits_per_proc_kinst": "bits/kinst",
	"container_bytes":         "bytes",
}

var perLayerUnits = map[string]string{
	"workload.gen_ms":           "ms",
	"bulksc.record_ns_per_inst": "ns/inst",
	"bulksc.replay_ns_per_inst": "ns/inst",
	"bulksc.chunks":             "count",
	"bulksc.squashes":           "count",
	"bulksc.squash_frac":        "ratio",
	"core.record_ms":            "ms",
	"core.replay_ms":            "ms",
	"core.save_ms":              "ms",
	"core.load_eager_ms":        "ms",
	"core.index_ms":             "ms",
	"core.materialize_ms":       "ms",
	"core.replay_ckpt_ms":       "ms",
	"core.save_mb_s":            "MB/s",
	"core.materialize_mb_s":     "MB/s",
	"core.checkpoints":          "count",
	"core.materialized_bytes":   "bytes",
	"server.cache_hit_ratio":    "ratio",
	"server.inflight_dedup":     "count",
	"server.queue_refused":      "count",
	"server.materializations":   "count",
	"server.evictions":          "count",
	"server.resident_peak_mb":   "MB",
	"server.miss_overhead_ms":   "ms",
	"server.upload_overhead_ms": "ms",
	"op_p90_ms":                 "ms",
	"hit_p50_ms":                "ms",
	"hit_p99_ms":                "ms",
	"miss_p50_ms":               "ms",
	"miss_p99_ms":               "ms",
	"upload_p50_ms":             "ms",
	"go.alloc_mb_per_op":        "MB",
	"go.gc_cycles_per_op":       "count",
	"trace.overhead_pct":        "%",
	"bench.self_ms":             "ms",
	"error_rate":                "ratio",
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func durs(samples []sample, kind string) []time.Duration {
	var ds []time.Duration
	for _, s := range samples {
		if kind == "" || s.kind == kind {
			ds = append(ds, s.dur)
		}
	}
	return ds
}

func (e exactStats) bitsPerKinst() float64 {
	return float64(e.logBits) / (float64(e.insts) / 1000)
}

// windowLength is the length of the windows the measured phase is cut
// into. The end-to-end timings come from the run's fastest window: the
// host's speed drifts and now and then drops by a third for a minute or
// two, and only ever downwards, so the fastest window is the figure that
// other tenants of the host disturb least.
const windowLength = 8 * time.Second

// windowCount is how many windows a measured phase of length d has; a
// phase shorter than two windows is one window.
func windowCount(d time.Duration) int { return max(1, int(d/windowLength)) }

// windowStats are the timings of the ops that started in one window.
type windowStats struct {
	opsS, minstS  float64 // summed over the clients
	p50, cpuPerOp time.Duration
}

// fastestWindow cuts a measured phase of length d into windows and
// returns the timings of the one that completed ops fastest. A client's
// rate in a window is its op count over the time those ops took, so an
// op that runs past the window's end is counted once and whole.
// cpuMarks holds the process CPU time at each window boundary.
func fastestWindow(ok []sample, d time.Duration, cpuMarks []time.Duration) windowStats {
	n := len(cpuMarks) - 1
	type acc struct {
		ops   int
		busy  time.Duration
		insts uint64
	}
	best := windowStats{}
	for k := range n {
		clients := map[int]*acc{}
		var ds []time.Duration
		for _, s := range ok {
			if w := min(int(s.at*time.Duration(n)/d), n-1); w != k {
				continue
			}
			a := clients[s.client]
			if a == nil {
				a = &acc{}
				clients[s.client] = a
			}
			a.ops++
			a.busy += s.dur
			a.insts += s.insts
			ds = append(ds, s.dur)
		}
		var w windowStats
		for _, a := range clients {
			if a.busy > 0 {
				w.opsS += float64(a.ops) / a.busy.Seconds()
				w.minstS += float64(a.insts) / a.busy.Seconds() / 1e6
			}
		}
		if w.opsS <= best.opsS {
			continue
		}
		w.p50 = quantile(ds, 0.5)
		wall := (d / time.Duration(n)).Seconds()
		w.cpuPerOp = time.Duration(float64(cpuMarks[k+1]-cpuMarks[k]) / (w.opsS * wall))
		best = w
	}
	return best
}

// endToEnd computes the untraced run's metrics from its successful ops.
func endToEnd(ok []sample, d time.Duration, cpuMarks []time.Duration, rss float64, setupTimes []time.Duration, ex exactStats) map[string]float64 {
	w := fastestWindow(ok, d, cpuMarks)
	return map[string]float64{
		"setup_s":                 quantile(setupTimes, 0.5).Seconds(),
		"ops_s":                   w.opsS,
		"op_p50_ms":               ms(w.p50),
		"cpu_ms_per_op":           ms(w.cpuPerOp),
		"peak_rss_mb":             rss / 1e6,
		"sim_minst_s":             w.minstS,
		"sim_cycles":              float64(ex.cycles),
		"log_bits_per_proc_kinst": ex.bitsPerKinst(),
		"container_bytes":         float64(ex.containerBytes),
	}
}

// perLayer computes the traced run's metrics. Every per-layer metric is
// present; a layer call the workload never makes reads 0. extra holds
// the workload's own layer metrics.
func perLayer(spans []span, samples []sample, ex exactStats, m1, m0 runtime.MemStats, extra map[string]float64) map[string]float64 {
	v := map[string]float64{}
	for name := range perLayerUnits {
		v[name] = 0
	}
	median := func(name string) (float64, time.Duration, uint64) {
		ds, work := durations(spans, name)
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return ms(quantile(ds, 0.5)), sum, work
	}
	perUnit := func(sum time.Duration, work uint64) float64 {
		if work == 0 {
			return 0
		}
		return float64(sum) / float64(work)
	}
	var sum time.Duration
	var work uint64
	v["workload.gen_ms"], _, _ = median("workload.gen")
	v["core.record_ms"], sum, work = median("core.record")
	v["bulksc.record_ns_per_inst"] = perUnit(sum, work)
	v["core.replay_ms"], sum, work = median("core.replay")
	v["bulksc.replay_ns_per_inst"] = perUnit(sum, work)
	v["core.save_ms"], sum, work = median("core.save")
	if work > 0 {
		v["core.save_mb_s"] = float64(work) / 1e6 / sum.Seconds()
	}
	v["core.load_eager_ms"], _, _ = median("core.load_eager")
	v["core.index_ms"], _, _ = median("core.index")
	v["core.materialize_ms"], sum, work = median("core.materialize")
	if work > 0 {
		v["core.materialize_mb_s"] = float64(work) / 1e6 / sum.Seconds()
	}
	v["core.replay_ckpt_ms"], _, _ = median("core.replay_ckpt")

	v["bulksc.chunks"] = float64(ex.chunks)
	v["bulksc.squashes"] = float64(ex.squashes)
	if a := ex.chunks + ex.squashes; a > 0 {
		v["bulksc.squash_frac"] = float64(ex.squashes) / float64(a)
	}
	v["core.checkpoints"] = float64(ex.checkpoints)
	v["core.materialized_bytes"] = float64(ex.materializedBytes)

	var ok []sample
	for _, s := range samples {
		if s.err == nil {
			ok = append(ok, s)
		}
	}
	v["op_p90_ms"] = ms(quantile(durs(ok, ""), 0.90))
	v["hit_p50_ms"] = ms(quantile(durs(ok, "hit"), 0.50))
	v["hit_p99_ms"] = ms(quantile(durs(ok, "hit"), 0.99))
	v["miss_p50_ms"] = ms(quantile(durs(ok, "miss"), 0.50))
	v["miss_p99_ms"] = ms(quantile(durs(ok, "miss"), 0.99))
	v["upload_p50_ms"] = ms(quantile(durs(ok, "upload"), 0.50))

	n := float64(len(samples))
	v["go.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / n
	v["go.gc_cycles_per_op"] = float64(m1.NumGC-m0.NumGC) / n
	v["trace.overhead_pct"] = traceOverhead(ok)
	v["error_rate"] = float64(len(samples)-len(ok)) / n

	var self []time.Duration
	for _, s := range spans {
		if s.Parent < 0 && strings.HasPrefix(s.Name, "op:") {
			self = append(self, time.Duration(s.Self))
		}
	}
	v["bench.self_ms"] = ms(quantile(self, 0.5))
	for name, x := range extra {
		v[name] = x
	}
	return v
}

// traceOverhead compares the traced and untraced ops of one run: the
// percentage by which tracing lowers ops per second at the run's op
// mix. Each kind's mean latency is weighted by its share of all ops.
func traceOverhead(ok []sample) float64 {
	type acc struct {
		n   [2]int
		sum [2]time.Duration
	}
	kinds := map[string]*acc{}
	for _, s := range ok {
		a := kinds[s.kind]
		if a == nil {
			a = &acc{}
			kinds[s.kind] = a
		}
		i := 0
		if s.traced {
			i = 1
		}
		a.n[i]++
		a.sum[i] += s.dur
	}
	var cost [2]float64
	for _, a := range kinds {
		if a.n[0] == 0 || a.n[1] == 0 {
			continue
		}
		w := float64(a.n[0] + a.n[1])
		for i := range cost {
			cost[i] += w * float64(a.sum[i]) / float64(a.n[i])
		}
	}
	if cost[0] == 0 {
		return 0
	}
	return (cost[1]/cost[0] - 1) * 100
}
