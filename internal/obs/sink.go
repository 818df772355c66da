package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Sink consumes the event stream a Probe emits. Implementations must be
// safe for concurrent Emit calls: the grid runner fans cells out across
// workers and they share one sink.
type Sink interface {
	Emit(Event)
	// Close flushes buffered state. The probe's owner closes the sink once
	// after the run; events emitted after Close are discarded.
	Close() error
}

// JSONLSink writes one JSON object per event per line. Emit is safe for
// concurrent use; encoding errors are sticky and reported by Close.
type JSONLSink struct {
	mu     sync.Mutex
	w      *bufio.Writer
	c      io.Closer // closes the underlying writer when it is a Closer
	enc    *json.Encoder
	err    error
	closed bool
}

// NewJSONL returns a JSONL sink over w. If w is an io.Closer (a file),
// Close closes it after flushing.
func NewJSONL(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	s := &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit encodes ev as one line.
func (s *JSONLSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.err != nil {
		return
	}
	s.err = s.enc.Encode(ev)
}

// Close flushes the buffer (and closes the underlying file, when there is
// one), returning the first error seen on the stream.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	if err := s.w.Flush(); s.err == nil {
		s.err = err
	}
	if s.c != nil {
		if err := s.c.Close(); s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// ProgressSink renders a human-readable live progress line: round_end
// events overwrite one status line (carriage return, no scroll) and
// evaluations, cells, and the run close print durable lines. It is meant
// for an interactive stderr; pipe JSONL elsewhere for machine use.
type ProgressSink struct {
	mu     sync.Mutex
	w      io.Writer
	rounds int  // total rounds from the manifest, 0 when unknown
	nodes  int  // fleet size from the manifest, 0 when unknown
	dirty  bool // a \r status line is pending and needs a newline
}

// NewProgress returns a progress sink writing to w.
func NewProgress(w io.Writer) *ProgressSink { return &ProgressSink{w: w} }

func (s *ProgressSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case KindRunStart:
		if ev.Manifest != nil {
			s.rounds = ev.Manifest.Rounds
			s.nodes = ev.Manifest.Nodes
			fmt.Fprintf(s.w, "run %s seed=%d config=%s\n",
				ev.Manifest.Engine, ev.Manifest.Seed, ev.Manifest.ConfigHash)
		}
	case KindRoundEnd:
		total := "?"
		if s.rounds > 0 {
			total = fmt.Sprint(s.rounds)
		}
		line := fmt.Sprintf("\rround %d/%s  trained=%d live=%d", ev.Round+1, total, ev.Trained, ev.Live)
		if ev.VTime > 0 { // the event engine's ledger tick: no rounds to count
			line = fmt.Sprintf("\rt=%.2fs  trained=%d live=%d", ev.VTime, ev.Trained, ev.Live)
		}
		if ev.SoCP50 != 0 || ev.SoCP99 != 0 || ev.MeanSoC != 0 {
			line += fmt.Sprintf("  soc p50=%.3f p90=%.3f p99=%.3f", ev.SoCP50, ev.SoCP90, ev.SoCP99)
		}
		if s.nodes > 0 && ev.WallNs > 0 {
			line += fmt.Sprintf("  %.1fM nr/s", float64(s.nodes)/float64(ev.WallNs)*1e3)
		}
		fmt.Fprintf(s.w, "%-78s", line)
		s.dirty = true
	case KindEval:
		s.newline()
		at := fmt.Sprintf("round %d", ev.Round+1)
		if ev.VTime > 0 {
			at = fmt.Sprintf("t=%.2fs", ev.VTime)
		}
		fmt.Fprintf(s.w, "eval %s: %.2f%% ± %.2f\n", at, 100*ev.MeanAcc, 100*ev.StdAcc)
	case KindCell:
		s.newline()
		fmt.Fprintf(s.w, "cell %s: %.2f (%.1f ms)\n", ev.Label, ev.Value, float64(ev.WallNs)/1e6)
	case KindRunEnd:
		s.newline()
		unit := "rounds"
		if ev.VTime > 0 { // the event engine counts steps
			unit = "steps"
		}
		fmt.Fprintf(s.w, "run done: %d %s in %.2fs\n", ev.Steps, unit, float64(ev.WallNs)/1e9)
	}
}

// newline terminates a pending \r status line. Callers hold s.mu.
func (s *ProgressSink) newline() {
	if s.dirty {
		fmt.Fprintln(s.w)
		s.dirty = false
	}
}

// Close terminates any pending status line.
func (s *ProgressSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.newline()
	return nil
}

// Multi fans every event out to all sinks; Close closes each and returns
// the first error. Multi of no sinks is nil, which NewProbe reads as a
// disabled probe.
func Multi(sinks ...Sink) Sink {
	if len(sinks) == 0 {
		return nil
	}
	return multiSink(sinks)
}

type multiSink []Sink

func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

func (m multiSink) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
