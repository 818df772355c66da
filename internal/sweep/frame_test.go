package sweep

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/transport"
)

// referenceFrame is the wire encoding frameConn must reproduce byte for
// byte: json.Marshal, packed into a vector, written as a model message.
func referenceFrame(t *testing.T, kind transport.Kind, seq int, doc []byte) []byte {
	t.Helper()
	vec, err := transport.PackBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	var w bytes.Buffer
	if err := transport.WriteMessage(&w, transport.Message{Kind: kind, Round: seq, Vec: vec}); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

func TestFrameWireGolden(t *testing.T) {
	cases := []struct {
		kind transport.Kind
		v    any
	}{
		{transport.KindJob, JobRequest{Kind: "gamma-grid", Params: json.RawMessage(`{"nodes":12,"seed":7}`)}},
		{transport.KindJob, JobRequest{Kind: "square", Progress: true}},
		{transport.KindResult, JobReply{Result: json.RawMessage(`{"label":"<&> "}`), Stats: Stats{Cells: 80, Hits: 80}}},
		{transport.KindResult, JobReply{}},
		{transport.KindProgress, obs.Event{Kind: obs.KindCell, Round: -1, Node: -1, Label: "hit 0123abcd@rev", WallNs: 12345}},
		{transport.KindResult, json.RawMessage(`1`)},
		{transport.KindResult, json.RawMessage(`1234567`)},
		{transport.KindResult, json.RawMessage(`12345678`)},
		{transport.KindResult, json.RawMessage(`123456789`)},
	}
	a, peer := net.Pipe()
	defer a.Close()
	defer peer.Close()
	fc := newFrameConn(a)
	for i, c := range cases {
		doc, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceFrame(t, c.kind, i+1, doc)

		// The new writer's bytes are the old writer's.
		werr := make(chan error, 1)
		go func() { werr <- fc.write(c.kind, i+1, c.v) }()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(peer, got); err != nil {
			t.Fatal(err)
		}
		if err := <-werr; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d (%s): wrote\n% x\nwant\n% x", i, doc, got, want)
		}

		// The new reader returns exactly the document from the old writer's bytes.
		go peer.Write(want)
		kind, seq, out, err := fc.read()
		if err != nil || kind != c.kind || seq != i+1 || !bytes.Equal(out, doc) {
			t.Fatalf("case %d: read kind %d seq %d doc %q err %v, want %q", i, kind, seq, out, err, doc)
		}
	}
	// An empty document: no JSON value encodes to one, the old writer can frame one.
	go peer.Write(referenceFrame(t, transport.KindResult, 9, nil))
	if _, _, out, err := fc.read(); err != nil || len(out) != 0 {
		t.Fatalf("empty document: %q, %v", out, err)
	}
}

// rawJob submits one job the way a parent-built client does and returns
// the frames up to and including the result.
func rawJob(t *testing.T, conn net.Conn, seq int, request string) (progress []obs.Event, reply JobReply) {
	t.Helper()
	if _, err := conn.Write(referenceFrame(t, transport.KindJob, seq, []byte(request))); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := transport.ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := transport.UnpackBytes(m.Vec)
		if err != nil {
			t.Fatal(err)
		}
		if m.Round != seq {
			t.Fatalf("frame echoes seq %d, want %d", m.Round, seq)
		}
		switch m.Kind {
		case transport.KindProgress:
			var ev obs.Event
			if err := json.Unmarshal(doc, &ev); err != nil {
				t.Fatal(err)
			}
			progress = append(progress, ev)
		case transport.KindResult:
			if err := json.Unmarshal(doc, &reply); err != nil {
				t.Fatal(err)
			}
			return progress, reply
		default:
			t.Fatalf("unexpected frame kind %d", m.Kind)
		}
	}
}

// Progress is sent to the jobs that ask for it and to no others; frames
// are ordered, so a progress frame of job 1 would show ahead of its result.
func TestProgressBySubscription(t *testing.T) {
	srv := newTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))

	const params = `"params":{"values":[2,3,4],"rev":"subscription"}`
	if _, reply := rawJob(t, conn, 1, `{"kind":"square",`+params+`,"progress":true}`); reply.Stats.Misses != 3 {
		t.Fatalf("cold fill %+v", reply)
	}
	progress, reply := rawJob(t, conn, 2, `{"kind":"square",`+params+`}`)
	if len(progress) != 0 || !reply.Stats.AllHits() || string(reply.Result) != "[4,9,16]" {
		t.Fatalf("unsubscribed all-hit job: %d progress frames, reply %+v", len(progress), reply)
	}
	progress, reply = rawJob(t, conn, 3, `{"kind":"square",`+params+`,"progress":true}`)
	if len(progress) != 3 || !reply.Stats.AllHits() || string(reply.Result) != "[4,9,16]" {
		t.Fatalf("subscribed all-hit job: %d progress frames, reply %+v", len(progress), reply)
	}
	var got, want []string
	for i, ev := range progress {
		if ev.Kind != obs.KindCell || ev.Round != -1 || ev.Node != -1 {
			t.Fatalf("progress event %+v", ev)
		}
		got = append(got, ev.Label)
		m := obs.NewManifest("squarecell", "", uint64(i+2)).Build()
		want = append(want, "hit "+CellKey{ConfigHash: m.ConfigHash, Revision: "subscription"}.String())
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("labels %v, want %v", got, want)
	}
}

// An unsubscribed all-hit request costs lookups and one small frame each
// way: 605 allocations measured, about 7 per cell of them the test
// workload's own manifest Build and decode. With 80 progress frames sent
// and decoded whether or not anyone reads them it measured 2 061.
func TestWarmRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, err := NewServer("127.0.0.1:0", NewMemStore(0), par.NewPool(1))
	if err != nil {
		t.Skipf("cannot open localhost sockets in this environment: %v", err)
	}
	registerSquare(srv)
	go srv.Serve()
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p := squareParams{Rev: "budget"}
	for v := 0; v < 80; v++ {
		p.Values = append(p.Values, v)
	}
	request := func() {
		_, stats, err := c.Do("square", p, nil)
		if err != nil || stats.Cells != 80 {
			t.Fatalf("request: %+v, %v", stats, err)
		}
	}
	request() // fill
	const budget = 670
	if got := testing.AllocsPerRun(20, request); got > budget {
		t.Fatalf("%v allocations per unsubscribed warm 80-cell request, budget %d", got, budget)
	}
}

// impatientConn shrinks every write deadline a hundredfold, so a test can
// outwait frameWriteTimeout without the constant being test-sized.
type impatientConn struct{ net.Conn }

func (c impatientConn) SetWriteDeadline(d time.Time) error {
	return c.Conn.SetWriteDeadline(time.Now().Add(time.Until(d) / 100))
}

// A subscribed client that stops reading is cut off after the write
// deadline instead of holding its job's goroutines and connection until
// it goes away: the job finishes, its cells are cached, other clients are
// served meanwhile, and Close has nothing left to wait for.
func TestStalledSubscriberIsCutOff(t *testing.T) {
	srv := newTestServer(t)
	pipe, stalled := net.Pipe() // unbuffered: the first unread frame blocks its writer
	defer stalled.Close()
	server := impatientConn{pipe}
	srv.mu.Lock()
	srv.conns[server] = struct{}{}
	srv.wg.Add(1)
	srv.mu.Unlock()
	served := make(chan struct{})
	go func() {
		srv.serveConn(server)
		close(served)
	}()

	request := `{"kind":"square","params":{"values":[11,12,13,14],"rev":"stalled"},"progress":true}`
	if _, err := stalled.Write(referenceFrame(t, transport.KindJob, 1, []byte(request))); err != nil {
		t.Fatal(err)
	}
	// ... and never read. A second client is served while the first stalls.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, _, err := c.Do("square", squareParams{Values: []int{21, 22}, Rev: "stalled"}, func(obs.Event) {}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= frameWriteTimeout {
		t.Fatalf("second client waited %v behind a stalled one", d)
	}
	select {
	case <-served: // the stalled job ran to completion and its connection was dropped
	case <-time.After(frameWriteTimeout):
		t.Fatal("stalled connection still being served after the write deadline")
	}
	_, stats, err := c.Do("square", squareParams{Values: []int{11, 12, 13, 14}, Rev: "stalled"}, nil)
	if err != nil || !stats.AllHits() {
		t.Fatalf("stalled job's cells not cached: %+v, %v", stats, err)
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(frameWriteTimeout):
		t.Fatal("Close did not return")
	}
}

// A frame that does not echo the job's sequence number, or a connection
// lost mid-job, leaves the stream out of step: the job fails and the
// client refuses further jobs instead of reading leftovers as replies.
func TestClientPoisonedByStreamFailure(t *testing.T) {
	cases := []struct {
		name   string
		server func(fc *frameConn, seq int)
		want   string
	}{
		{"stale sequence", func(fc *frameConn, seq int) {
			fc.write(transport.KindResult, seq-1, JobReply{Result: json.RawMessage(`"stale"`)})
			fc.write(transport.KindResult, seq, JobReply{Result: json.RawMessage(`"late"`)})
		}, "job 1 (square): frame of job 0 arrived instead"},
		{"closed mid-job", func(fc *frameConn, seq int) {
			fc.write(transport.KindProgress, seq, obs.Event{Kind: obs.KindCell, Label: "miss x"})
			fc.conn.Close()
		}, "connection lost mid-job"},
		{"unexpected kind", func(fc *frameConn, seq int) {
			fc.write(transport.KindJob, seq, JobRequest{Kind: "echo"})
		}, "unexpected frame kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			go func() {
				fc := newFrameConn(b)
				if _, seq, _, err := fc.read(); err == nil {
					tc.server(fc, seq)
				}
			}()
			c := &Client{fc: newFrameConn(a)}
			events := 0
			if _, _, err := c.Do("square", nil, func(obs.Event) { events++ }); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("first Do: %v, want %q", err, tc.want)
			}
			// Nothing reads the second request: Do must fail before writing it.
			if _, _, err := c.Do("square", nil, nil); err == nil || !strings.Contains(err.Error(), "redial") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("second Do: %v, want a redial error naming the first", err)
			}
			if tc.name == "closed mid-job" && events != 1 {
				t.Fatalf("%d progress events before the loss, want 1", events)
			}
		})
	}
}

// One outsized frame must not leave its buffer with the connection.
func TestFrameBuffersReleasedAfterOutsizedFrame(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	w, r := newFrameConn(a), newFrameConn(b)
	big := strings.Repeat("x", 2<<20)
	for _, v := range []string{big, "small"} {
		werr := make(chan error, 1)
		go func() { werr <- w.write(transport.KindResult, 1, JobReply{Error: v}) }()
		var reply JobReply
		_, _, doc, err := r.read()
		if err == nil {
			err = json.Unmarshal(doc, &reply)
		}
		if err != nil || reply.Error != v {
			t.Fatalf("%d-byte reply: got %d bytes, %v", len(v), len(reply.Error), err)
		}
		if err := <-werr; err != nil {
			t.Fatal(err)
		}
		if v == big && cap(r.rbuf) < len(big) {
			t.Fatalf("reader holds %d bytes right after a %d-byte frame: the document it returned is gone", cap(r.rbuf), len(big))
		}
	}
	if cap(r.rbuf) > maxRetainedFrame || w.wbuf.Cap() > maxRetainedFrame {
		t.Fatalf("after a small frame the connection still holds read %d / write %d bytes, limit %d", cap(r.rbuf), w.wbuf.Cap(), maxRetainedFrame)
	}
}
