package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval: an op's root span or one public call made
// inside it. Spans of one op share Op; children name their root through
// Parent. Times are nanoseconds since the tracer started.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	// Work is what the call processed: simulated instructions for record
	// and replay calls, bytes for save and materialize calls.
	Work uint64 `json:"work,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory; writeSpans saves them when the run
// ends. A nil *tracer is a disabled tracer.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	ops   int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// opTrace collects the spans of one op before they join the tracer, so
// an op takes the tracer's lock once. A nil *opTrace records nothing
// and only runs the calls.
type opTrace struct {
	tr    *tracer
	spans []span
}

// begin opens the root span of a new op, or returns nil when tr is nil.
func (tr *tracer) begin(name string) *opTrace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	tr.ops++
	op := tr.ops
	tr.mu.Unlock()
	return &opTrace{tr: tr, spans: []span{{Op: op, Parent: -1, Name: name, Start: tr.now()}}}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// call runs fn as a child span of the op's root.
func (o *opTrace) call(name string, fn func() error) error {
	if o == nil {
		return fn()
	}
	s := span{Op: o.spans[0].Op, ID: len(o.spans), Parent: 0, Name: name, Start: o.tr.now()}
	err := fn()
	s.End = o.tr.now()
	o.spans = append(o.spans, s)
	return err
}

// work sets the latest child span's Work.
func (o *opTrace) work(n uint64) {
	if o != nil && len(o.spans) > 1 {
		o.spans[len(o.spans)-1].Work = n
	}
}

// finish closes the root span, renaming it to name when name is not
// empty, and hands the op's spans to the tracer.
func (o *opTrace) finish(name string) {
	if o == nil {
		return
	}
	o.spans[0].End = o.tr.now()
	if name != "" {
		o.spans[0].Name = name
	}
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.spans...)
	o.tr.mu.Unlock()
}

// selfTimes sets each span's Self: its duration minus the part of it
// that its children cover.
func selfTimes(spans []span) {
	type key struct {
		op int64
		id int
	}
	children := map[key][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			k := key{s.Op, s.Parent}
			children[k] = append(children[k], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		ivs := children[key{s.Op, s.ID}]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// snapshot returns the recorded spans with self times filled in.
func (tr *tracer) snapshot() []span {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	selfTimes(spans)
	return spans
}

// durations returns the durations of the spans named name, and the
// simulated instructions they committed.
func durations(spans []span, name string) ([]time.Duration, uint64) {
	var ds []time.Duration
	var work uint64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, s.dur())
			work += s.Work
		}
	}
	return ds, work
}

// writeSpans saves the spans as JSON under dir.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
