package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed interval at a layer boundary. The harness opens spans
// around its own calls into internal/* and turns the obs events those
// calls emit (rounds, phases, grid cells) into child spans, so a layer's
// self time is its span minus the part its children cover.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 at the root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the tracer was created
	EndNs    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps every span of a traced run in memory; write dumps them at
// exit. A nil *tracer is the untraced state: every method is a no-op, so
// workloads call it unconditionally and the end-to-end run pays a nil
// check per call.
type tracer struct {
	mu       sync.Mutex // cell events can arrive from pool workers
	t0       time.Time
	workload string // stamped on every span opened from now on
	spans    []span
	open     []int          // ids of the open spans, innermost last
	counts   map[string]int // instantaneous events, keyed workload/name
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int{}}
}

// label sets the workload stamped on subsequent spans and counts.
func (t *tracer) label(workload string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.workload = workload
	t.mu.Unlock()
}

func (t *tracer) parentLocked() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: t.parentLocked(), Name: name, Workload: t.workload,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	t.open = append(t.open, id)
	return id
}

// end closes span id (and anything left open inside it).
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top].EndNs = now
		if top == id {
			return
		}
	}
}

// done records a span of durNs that ended just now, as a child of the
// innermost open span — how obs events that carry their own wall clock
// (phases, cells) become spans.
func (t *tracer) done(name string, durNs int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: t.parentLocked(), Name: name, Workload: t.workload,
		StartNs: now - durNs, EndNs: now,
	})
}

// count records n instantaneous events (brown-outs, dropped sends, cache
// verdicts) at a layer boundary.
func (t *tracer) count(name string, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[t.workload+"/"+name] += n
	t.mu.Unlock()
}

func (t *tracer) counted(workload, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[workload+"/"+name]
}

// probe returns an obs probe whose events land in the tracer as spans and
// counts named layer.<thing>; nil when tracing is off, which is the
// engines' own zero-cost off state. One probe serves one engine run.
func (t *tracer) probe(layer string) *obs.Probe {
	if t == nil {
		return nil
	}
	return obs.NewProbe(&spanSink{t: t, layer: layer, round: -1, kinds: map[string]int{}})
}

// spanSink adapts the engines' event stream to spans: a round_start /
// round_end pair brackets a round span, phase and cell events (which carry
// their own wall clock) become its children, everything else is counted.
// The async engine emits some 376 000 brown-out, revival and dropped-send
// events a unit, so those are tallied by kind in the sink — no lock, no key
// to build — and handed to the tracer once, at run_end. Only cell events
// arrive from other goroutines, and they go straight to the tracer.
type spanSink struct {
	t     *tracer
	layer string
	round int            // id of the open round span, -1 when none
	kinds map[string]int // events by kind since run_start
}

func (s *spanSink) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindRoundStart:
		s.round = s.t.begin(s.layer + ".round")
	case obs.KindRoundEnd:
		if s.round >= 0 {
			s.t.end(s.round)
			s.round = -1
		}
	case obs.KindPhase:
		s.t.done(s.layer+"."+ev.Phase, ev.WallNs)
	case obs.KindCell:
		s.t.done(s.layer+".cell", ev.WallNs)
	case obs.KindDropped:
		s.kinds[ev.Kind] += ev.Dropped
	case obs.KindRunEnd:
		s.kinds[ev.Kind]++
		for kind, n := range s.kinds {
			s.t.count(s.layer+"."+kind, n)
		}
		clear(s.kinds)
	default:
		s.kinds[ev.Kind]++
	}
}

func (s *spanSink) Close() error { return nil }

// durations returns the length in ns of every closed span of one workload
// with the given name, in recording order.
func (t *tracer) durations(workload, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Workload == workload && s.Name == name && s.EndNs > 0 {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// total sums durations(workload, name).
func (t *tracer) total(workload, name string) float64 {
	sum := 0.0
	for _, d := range t.durations(workload, name) {
		sum += d
	}
	return sum
}

// self sums, over every span of one workload with the given name, its
// duration minus the part covered by its direct children.
func (t *tracer) self(workload, name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.dur()
		}
	}
	sum := 0.0
	for _, s := range t.spans {
		if s.Workload == workload && s.Name == name {
			sum += float64(s.dur() - children[s.ID])
		}
	}
	return sum
}

// write dumps every span and count as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans  []span         `json:"spans"`
		Counts map[string]int `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
