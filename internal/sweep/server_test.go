package sweep

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
)

type squareParams struct {
	Values []int  `json:"values"`
	Rev    string `json:"rev,omitempty"`
}

var squareComputes int64

// registerSquare installs a toy grid workload: square each value, one
// cell per value, keyed by a per-value manifest.
func registerSquare(s *Server) {
	s.Handle("square", func(r *Runner, raw json.RawMessage) (any, error) {
		var p squareParams
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, err
		}
		return Grid(r, len(p.Values),
			func(i int) CellKey {
				m := obs.NewManifest("squarecell", "", uint64(p.Values[i])).Build()
				return CellKey{ConfigHash: m.ConfigHash, Revision: p.Rev}
			},
			func(i int) (int, error) {
				atomic.AddInt64(&squareComputes, 1)
				return p.Values[i] * p.Values[i], nil
			})
	})
	s.Handle("fail", func(r *Runner, raw json.RawMessage) (any, error) {
		return nil, fmt.Errorf("deliberate workload failure")
	})
	s.Handle("panic", func(r *Runner, raw json.RawMessage) (any, error) {
		panic("deliberate workload panic")
	})
}

func newTestServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", NewMemStore(0), par.NewPool(2))
	if err != nil {
		t.Skipf("cannot open localhost sockets in this environment: %v", err)
	}
	registerSquare(srv)
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestServerCachesAcrossJobsAndClients(t *testing.T) {
	srv := newTestServer(t)
	atomic.StoreInt64(&squareComputes, 0)

	c1, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	var events []obs.Event
	raw, stats, err := c1.Do("square", squareParams{Values: []int{2, 3, 4}}, func(ev obs.Event) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 4 || got[1] != 9 || got[2] != 16 {
		t.Fatalf("result %v", got)
	}
	if stats.Misses != 3 || stats.Hits != 0 {
		t.Fatalf("cold job stats %+v", stats)
	}
	if len(events) != 3 {
		t.Fatalf("%d progress events, want 3", len(events))
	}
	for _, ev := range events {
		if ev.Kind != obs.KindCell || !strings.HasPrefix(ev.Label, "miss ") {
			t.Fatalf("cold progress event %+v", ev)
		}
	}

	// A second client overlapping the same grid hits the shared cache.
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	events = events[:0]
	_, stats, err = c2.Do("square", squareParams{Values: []int{2, 3, 4, 5}}, func(ev obs.Event) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 3 || stats.Misses != 1 {
		t.Fatalf("overlap job stats %+v", stats)
	}
	if atomic.LoadInt64(&squareComputes) != 4 {
		t.Fatalf("%d computes across clients, want 4", squareComputes)
	}
	hits := 0
	for _, ev := range events {
		if strings.HasPrefix(ev.Label, "hit ") {
			hits++
		}
	}
	if hits != 3 {
		t.Fatalf("progress stream reported %d hits, want 3: %+v", hits, events)
	}

	// Same client again, fully warm: 100% hits, zero computes.
	_, stats, err = c1.Do("square", squareParams{Values: []int{2, 3, 4, 5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AllHits() {
		t.Fatalf("warm job stats %+v", stats)
	}
	if atomic.LoadInt64(&squareComputes) != 4 {
		t.Fatalf("warm rerun recomputed: %d", squareComputes)
	}
}

func TestServerErrorPathsKeepConnectionAlive(t *testing.T) {
	srv := newTestServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.Do("no-such-job", nil, nil); err == nil || !strings.Contains(err.Error(), "unknown job kind") {
		t.Fatalf("unknown kind err = %v", err)
	}
	if _, _, err := c.Do("fail", nil, nil); err == nil || !strings.Contains(err.Error(), "deliberate workload failure") {
		t.Fatalf("failing job err = %v", err)
	}
	if _, _, err := c.Do("panic", nil, nil); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking job err = %v", err)
	}
	// The connection survived all three failures.
	raw, stats, err := c.Do("square", squareParams{Values: []int{6}, Rev: "errpath"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	if err := json.Unmarshal(raw, &got); err != nil || got[0] != 36 {
		t.Fatalf("post-error job: %v %v", got, err)
	}
	if stats.Cells != 1 {
		t.Fatalf("post-error stats %+v", stats)
	}
}

func TestServerCloseIdempotentAndUnblocksClients(t *testing.T) {
	srv := newTestServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if _, _, err := c.Do("square", squareParams{Values: []int{1}}, nil); err == nil {
		t.Fatal("Do against a closed server must error")
	}
	// The job failed on the connection, so the client refuses the next one.
	if _, _, err := c.Do("square", squareParams{Values: []int{1}}, nil); err == nil || !strings.Contains(err.Error(), "redial") {
		t.Fatalf("Do on a client whose connection was lost = %v, want a redial error", err)
	}
}
