package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"delorean"
	"delorean/internal/server"
)

// The serve-mixed fixture: the daemon with an in-memory store holding
// checkpointed syskernel recordings (interrupt and DMA input logs)
// under a residency budget of half their materialized size, behind a
// loopback listener. The recordings' seeds are fixed, so the store's
// contents do not depend on the benchmark seed; the seed draws the
// request mix and the replay perturbation seeds.
const (
	serveProcs      = 4
	serveScale      = 130
	serveCheckpoint = 5
	serveFixtures   = 4 // recordings, syskernel seeds 1..serveFixtures
	serveHotSeeds   = 4 // warmed perturbation seeds per recording
	serveWorkers    = 2
	serveClients    = 2 // closed-loop clients
	// directCalls is how many direct core calls a traced run makes after
	// its measured phase, to split request latency into the serving
	// stack and the engine and codec beneath it.
	directCalls = 40
)

type storedRec struct {
	id    string
	query string
	data  []byte
	rec   *delorean.Recording
	w     *delorean.Workload
	stats delorean.ExecStats
}

// hotKey is a warmed (recording, perturbation seed) pair and the
// verdict body the daemon returned for it in set-up.
type hotKey struct {
	rec  int
	seed uint64
	body []byte
}

type serveFixture struct {
	srv      *server.Server
	hs       *http.Server
	serveErr chan error
	base     string
	recs     []storedRec
	hot      []hotKey
	clients  []*http.Client // one per closed-loop client, then one for set-up and probes
	counters map[string]float64
	ex       exactStats
}

// setupServe records the fixtures, starts the daemon, uploads them and
// warms the hot keys.
func setupServe(seed uint64, o *opTrace) (fixture, error) {
	f := &serveFixture{}
	cfg := delorean.DefaultConfig()
	cfg.Processors = serveProcs
	cfg.CheckpointEvery = serveCheckpoint
	for k := 1; k <= serveFixtures; k++ {
		rec, err := recordFixture(o, cfg, "syskernel", serveProcs, serveScale, uint64(k))
		if err != nil {
			return nil, err
		}
		w := delorean.NewWorkload("syskernel", serveProcs, serveScale, uint64(k))
		ex, data, err := measureExact(o, rec, cfg, w)
		if err != nil {
			return nil, err
		}
		f.ex = f.ex.add(ex)
		f.recs = append(f.recs, storedRec{
			query: fmt.Sprintf("workload=syskernel&procs=%d&scale=%d&seed=%d", serveProcs, serveScale, k),
			data:  data, rec: rec, w: w, stats: rec.Stats(),
		})
	}
	if err := f.start(f.ex.materializedBytes / 2); err != nil {
		return nil, err
	}
	if err := f.warm(seed, o); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// start serves a new daemon on a loopback port.
func (f *serveFixture) start(budget int64) error {
	srv, err := server.New(server.Config{Workers: serveWorkers, LoadWorkers: 1, ResidencyBudget: budget})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return err
	}
	f.srv, f.hs = srv, &http.Server{Handler: srv}
	f.base = "http://" + ln.Addr().String()
	f.serveErr = make(chan error, 1)
	go func() { f.serveErr <- f.hs.Serve(ln) }()
	for range serveClients + 1 {
		f.clients = append(f.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	return nil
}

// warm uploads every recording and requests each hot key once,
// keeping the verdict bodies that later hits must repeat byte for byte.
func (f *serveFixture) warm(seed uint64, o *opTrace) error {
	c := f.clients[len(f.clients)-1]
	for k := range f.recs {
		r := &f.recs[k]
		status, body, err := f.post(c, o, "server.upload", "/v1/recordings?"+r.query, "application/octet-stream", r.data)
		if err != nil {
			return err
		}
		var desc struct {
			ID        string `json:"id"`
			SizeBytes int    `json:"size_bytes"`
		}
		if status != http.StatusCreated || json.Unmarshal(body, &desc) != nil || desc.SizeBytes != len(r.data) {
			return fmt.Errorf("upload: status %d: %s", status, body)
		}
		r.id = desc.ID
	}
	rng := newRand(seed, 0)
	for k := range f.recs {
		for range serveHotSeeds {
			h := hotKey{rec: k, seed: 1 + rng.Uint64N(1<<32)}
			body, _, err := f.replay(c, o, "server.warm", k, h.seed)
			if err != nil {
				return err
			}
			h.body = body
			f.hot = append(f.hot, h)
		}
	}
	var err error
	f.counters, err = f.scrape()
	return err
}

// op sends one request drawn from the mix: 75% replays of hot keys
// (cache hits), 20% replays under never-used perturbation seeds (cache
// misses), 5% re-uploads of a stored container.
func (f *serveFixture) op(c *client, o *opTrace) (string, uint64, error) {
	hc := f.clients[c.id]
	switch r := c.rng.IntN(100); {
	case r < 75:
		h := f.hot[c.rng.IntN(len(f.hot))]
		status, body, err := f.post(hc, o, "server.hit", replayPath(f.recs[h.rec].id), "application/json", replayBody(h.seed))
		if err == nil && (status != http.StatusOK || !bytes.Equal(body, h.body)) {
			err = fmt.Errorf("hit: status %d, body differs from the warmed verdict: %s", status, body)
		}
		return "hit", 0, err
	case r < 95:
		_, insts, err := f.replay(hc, o, "server.miss", c.rng.IntN(len(f.recs)), c.perturbSeed())
		return "miss", insts, err
	default:
		r := f.recs[c.rng.IntN(len(f.recs))]
		status, body, err := f.post(hc, o, "server.upload", "/v1/recordings?"+r.query, "application/octet-stream", r.data)
		if err != nil {
			return "upload", 0, err
		}
		var desc struct {
			ID string `json:"id"`
		}
		if status != http.StatusOK || json.Unmarshal(body, &desc) != nil || desc.ID != r.id {
			return "upload", 0, fmt.Errorf("re-upload: status %d, want 200 and id %s: %s", status, r.id, body)
		}
		return "upload", 0, nil
	}
}

func replayPath(id string) string { return "/v1/recordings/" + id + "/replay" }

func replayBody(seed uint64) []byte {
	return []byte(`{"perturb_seed":` + strconv.FormatUint(seed, 10) + `}`)
}

// replay requests a verdict for recording k and checks it. It returns
// the body and the instructions the replay committed.
func (f *serveFixture) replay(hc *http.Client, o *opTrace, name string, k int, seed uint64) ([]byte, uint64, error) {
	r := f.recs[k]
	status, body, err := f.post(hc, o, name, replayPath(r.id), "application/json", replayBody(seed))
	if err != nil {
		return nil, 0, err
	}
	var v struct {
		ID            string `json:"id"`
		Deterministic bool   `json:"deterministic"`
		Stats         struct {
			Instructions uint64 `json:"instructions"`
			Chunks       uint64 `json:"chunks"`
			Interrupts   uint64 `json:"interrupts"`
			IOOps        uint64 `json:"io_ops"`
			DMAs         uint64 `json:"dmas"`
		} `json:"stats"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &v) != nil || v.ID != r.id {
		return nil, 0, fmt.Errorf("replay %s: status %d: %s", r.id, status, body)
	}
	res := delorean.ReplayResult{Deterministic: v.Deterministic, Stats: delorean.ExecStats{
		Instructions: v.Stats.Instructions, Chunks: v.Stats.Chunks,
		Interrupts: v.Stats.Interrupts, IOOps: v.Stats.IOOps, DMAs: v.Stats.DMAs,
	}}
	if err := checkReplay(res, r.stats); err != nil {
		return nil, 0, fmt.Errorf("replay %s: %w", r.id, err)
	}
	return body, v.Stats.Instructions, nil
}

// post sends one request as a child span of o and reads the response.
func (f *serveFixture) post(hc *http.Client, o *opTrace, name, path, ctype string, body []byte) (int, []byte, error) {
	var status int
	var out []byte
	err := o.call(name, func() error {
		resp, err := hc.Post(f.base+path, ctype, bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		out, err = io.ReadAll(resp.Body)
		return err
	})
	return status, out, err
}

// scrape reads the daemon's /metrics counters.
func (f *serveFixture) scrape() (map[string]float64, error) {
	resp, err := f.clients[len(f.clients)-1].Get(f.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if x, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = x
		}
	}
	return m, nil
}

// probeLayers reports the daemon's counter deltas over the measured
// phase, then times the core calls a miss and an upload make, made
// directly on the same recordings with no other load, and subtracts
// them from the request medians.
func (f *serveFixture) probeLayers(tr *tracer, samples []sample) (map[string]float64, error) {
	after, err := f.scrape()
	if err != nil {
		return nil, err
	}
	d := func(name string) float64 { return after[name] - f.counters[name] }
	v := map[string]float64{
		"server.inflight_dedup":   d("cache.inflight_dedup"),
		"server.queue_refused":    d("errors.queue_full"),
		"server.materializations": d("store.materializations"),
		"server.evictions":        d("store.evictions"),
		"server.resident_peak_mb": after["store.resident_bytes_peak"] / 1e6,
	}
	if served := d("cache.hit") + d("cache.miss") + d("cache.inflight_dedup"); served > 0 {
		v["server.cache_hit_ratio"] = d("cache.hit") / served
	}
	for j := range directCalls {
		o := tr.begin("direct")
		err := f.direct(o, j)
		o.finish("")
		if err != nil {
			return nil, err
		}
	}
	spans := tr.snapshot()
	med := func(name string) time.Duration {
		ds, _ := durations(spans, name)
		return quantile(ds, 0.5)
	}
	var ok []sample
	for _, s := range samples {
		if s.err == nil {
			ok = append(ok, s)
		}
	}
	v["server.miss_overhead_ms"] = ms(quantile(durs(ok, "miss"), 0.5) - med("core.replay"))
	v["server.upload_overhead_ms"] = ms(quantile(durs(ok, "upload"), 0.5) -
		med("core.load_eager") - med("core.save") - med("core.index"))
	return v, nil
}

// direct makes, without the daemon, the core calls of one miss (a full
// replay) and of one upload (eager load, canonical re-encode, index).
func (f *serveFixture) direct(o *opTrace, j int) error {
	r := f.recs[j%len(f.recs)]
	if err := replayChecked(o, r.rec, 1<<61|uint64(j), r.stats); err != nil {
		return err
	}
	var eager *delorean.Recording
	if err := o.call("core.load_eager", func() (err error) {
		eager, err = delorean.LoadRecordingParallel(bytes.NewReader(r.data), delorean.Config{}, r.w, 1)
		return err
	}); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := saveTraced(o, eager, &buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), r.data) {
		return errors.New("re-encoded container differs from the stored one")
	}
	return o.call("core.index", func() error {
		_, err := delorean.IndexRecording(buf.Bytes(), delorean.Config{}, r.w)
		return err
	})
}

func (f *serveFixture) exact() exactStats { return f.ex }

// close shuts the daemon down and waits for its serving goroutine.
func (f *serveFixture) close() {
	if f.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = f.hs.Shutdown(ctx) // a timeout still leaves Serve returned
	<-f.serveErr
	f.srv.Drain()
	for _, c := range f.clients {
		c.CloseIdleConnections()
	}
	f.hs = nil
}
