package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// failWriter fails every write after the first n bytes-worth of calls.
type failWriter struct {
	calls int
	limit int
	err   error
}

func (w *failWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.limit {
		return 0, w.err
	}
	return len(p), nil
}

type failCloser struct {
	bytes.Buffer
	err error
}

func (c *failCloser) Close() error { return c.err }

func TestJSONLWriteFailureIsStickyAndSurfacesOnClose(t *testing.T) {
	wantErr := errors.New("disk full")
	w := &failWriter{limit: 0, err: wantErr}
	s := NewJSONL(w)
	// Force the tiny bufio buffer to flush mid-stream so the write error
	// lands during Emit, not only at Close.
	big := Event{Kind: KindCell, Label: strings.Repeat("x", 8192)}
	s.Emit(big)
	s.Emit(big)
	if err := s.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close() = %v, want %v", err, wantErr)
	}
	// Errors are sticky: closing again reports the same failure.
	if err := s.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("second Close() = %v, want sticky %v", err, wantErr)
	}
}

func TestJSONLCloserFailureSurfaces(t *testing.T) {
	wantErr := errors.New("close failed")
	c := &failCloser{err: wantErr}
	s := NewJSONL(c)
	s.Emit(Event{Kind: KindRunEnd, Round: -1, Node: -1})
	if err := s.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close() = %v, want %v", err, wantErr)
	}
}

func TestJSONLEmitAfterCloseIsDiscarded(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.Emit(Event{Kind: KindRunEnd, Round: -1, Node: -1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := buf.Len()
	s.Emit(Event{Kind: KindEval, Round: 0, Node: -1})
	if buf.Len() != before {
		t.Fatal("Emit after Close wrote to the stream")
	}
}

func TestMultiCloseReturnsFirstErrorButClosesAll(t *testing.T) {
	wantErr := errors.New("child failed")
	bad := NewJSONL(&failCloser{err: wantErr})
	mem := &recorder{}
	progress := NewProgress(&bytes.Buffer{})
	m := Multi(bad, mem, progress)
	m.Emit(Event{Kind: KindRoundEnd, Round: 0, Node: -1, Trained: 3})
	if countKind(mem.events, KindRoundEnd) != 1 {
		t.Fatal("fan-out skipped a child")
	}
	if err := m.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Multi.Close() = %v, want first child error %v", err, wantErr)
	}
}

func TestProgressSinkShowsNodeThroughput(t *testing.T) {
	var buf bytes.Buffer
	s := NewProgress(&buf)
	m := NewManifest("sim", "x", 1).Scale(2_000_000, 4).Build()
	s.Emit(Event{Kind: KindRunStart, Round: -1, Node: -1, Manifest: &m})
	s.Emit(Event{Kind: KindRoundEnd, Round: 0, Node: -1, Trained: 5, Live: 8, WallNs: 1_000_000})
	s.Close()
	if out := buf.String(); !strings.Contains(out, "2000.0M nr/s") {
		t.Fatalf("no node throughput in progress line:\n%q", out)
	}
}

// The event engine's ledger tick and evaluation have no round to count:
// their lines show the virtual time, where they once read "round 2/?" and
// "eval round 2".
func TestProgressSinkAsyncTickLine(t *testing.T) {
	var buf bytes.Buffer
	s := NewProgress(&buf)
	s.Emit(Event{Kind: KindEval, Round: 1, Node: -1, MeanAcc: 0.5, StdAcc: 0.04, VTime: 93.9358})
	s.Emit(Event{Kind: KindRoundEnd, Round: 1, Node: -1, Trained: 43, Live: 8, VTime: 93.9358})
	s.Close()
	if out := buf.String(); !strings.HasPrefix(out, "eval t=93.94s: 50.00% ± 4.00\n\rt=93.94s  trained=43 live=8") || strings.Contains(out, "round") {
		t.Fatalf("async progress lines: %q", out)
	}
}

// The run's close names what it counted: the round engine's rounds, the
// event engine's steps (its run_end carries virtual time). An async run
// once printed its step count as rounds.
func TestProgressSinkRunDoneUnit(t *testing.T) {
	for _, tc := range []struct {
		ev   Event
		want string
	}{
		{Event{Kind: KindRunEnd, Steps: 12, WallNs: 2e9}, "run done: 12 rounds in 2.00s\n"},
		{Event{Kind: KindRunEnd, Steps: 1428, VTime: 300, WallNs: 5e7}, "run done: 1428 steps in 0.05s\n"},
	} {
		var buf bytes.Buffer
		NewProgress(&buf).Emit(tc.ev)
		if buf.String() != tc.want {
			t.Errorf("%+v prints %q, want %q", tc.ev, buf.String(), tc.want)
		}
	}
}

// recorder is this package's test sink; obstest.MemorySink imports obs, so
// obs's own tests cannot use it.
type recorder struct{ events []Event }

func (r *recorder) Emit(ev Event) { r.events = append(r.events, ev) }
func (r *recorder) Close() error  { return nil }

// countKind counts the events of the given kind.
func countKind(events []Event, kind string) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}
