package transport

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/tensor"
)

func newTCPNet(t *testing.T, n int) *TCP {
	t.Helper()
	net, err := NewTCP(n, "127.0.0.1", 32)
	if err != nil {
		t.Skipf("cannot open localhost sockets in this environment: %v", err)
	}
	t.Cleanup(func() { net.Close() })
	return net
}

func TestTCPSendRecv(t *testing.T) {
	net := newTCPNet(t, 2)
	e0, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Vector{3.14, -2.71, 0}
	if err := e0.Send(1, Message{Round: 9, Kind: KindModel, Vec: want}); err != nil {
		t.Fatal(err)
	}
	m, err := e1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 0 || m.To != 1 || m.Round != 9 {
		t.Fatalf("header %+v", m)
	}
	for i := range want {
		if m.Vec[i] != want[i] {
			t.Fatalf("payload[%d] = %v", i, m.Vec[i])
		}
	}
}

// The wire still isolates: what TestLocalSendSharesVector shows shared
// over Local arrives over TCP in memory of its own, so a sender that
// overwrites its buffer after Send returns cannot reach the receiver.
func TestTCPSendIsolatesVector(t *testing.T) {
	net := newTCPNet(t, 2)
	e0, _ := net.Endpoint(0)
	e1, _ := net.Endpoint(1)
	vec := tensor.Vector{1, 2}
	if err := e0.Send(1, Message{Kind: KindModel, Vec: vec}); err != nil {
		t.Fatal(err)
	}
	vec[0] = 99
	m, err := e1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if &m.Vec[0] == &vec[0] || m.Vec[0] != 1 || m.Vec[1] != 2 {
		t.Fatalf("TCP delivered %v sharing=%t, want an isolated {1 2}", m.Vec, &m.Vec[0] == &vec[0])
	}
}

func TestTCPBidirectional(t *testing.T) {
	net := newTCPNet(t, 2)
	e0, _ := net.Endpoint(0)
	e1, _ := net.Endpoint(1)
	if err := e0.Send(1, Message{Round: 1, Kind: KindModel, Vec: tensor.Vector{1}}); err != nil {
		t.Fatal(err)
	}
	if err := e1.Send(0, Message{Round: 1, Kind: KindModel, Vec: tensor.Vector{2}}); err != nil {
		t.Fatal(err)
	}
	m1, err := e1.Recv()
	if err != nil || m1.Vec[0] != 1 {
		t.Fatalf("e1 recv: %v %+v", err, m1)
	}
	m0, err := e0.Recv()
	if err != nil || m0.Vec[0] != 2 {
		t.Fatalf("e0 recv: %v %+v", err, m0)
	}
}

func TestTCPLargeModelMessage(t *testing.T) {
	// A paper-size CIFAR model vector (89,834 floats = ~719 KB on the wire)
	// must survive framing across real sockets.
	net := newTCPNet(t, 2)
	e0, _ := net.Endpoint(0)
	e1, _ := net.Endpoint(1)
	vec := tensor.NewVector(89834)
	for i := range vec {
		vec[i] = float64(i%997) * 0.001
	}
	if err := e0.Send(1, Message{Round: 1, Kind: KindModel, Vec: vec}); err != nil {
		t.Fatal(err)
	}
	m, err := e1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Vec) != len(vec) {
		t.Fatalf("len %d", len(m.Vec))
	}
	for i := 0; i < len(vec); i += 1000 {
		if m.Vec[i] != vec[i] {
			t.Fatalf("payload[%d] = %v, want %v", i, m.Vec[i], vec[i])
		}
	}
}

func TestTCPRoundExchange(t *testing.T) {
	// A ring exchange over real sockets: node i sends to (i+1)%n and
	// receives from (i-1+n)%n, twice (two rounds).
	const n = 4
	net := newTCPNet(t, n)
	eps := make([]Endpoint, n)
	for i := range eps {
		var err error
		eps[i], err = net.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 1; round <= 2; round++ {
				err := eps[i].Send((i+1)%n, Message{Round: round, Kind: KindModel, Vec: tensor.Vector{float64(i*10 + round)}})
				if err != nil {
					errs <- err
					return
				}
				m, err := eps[i].Recv()
				if err != nil {
					errs <- err
					return
				}
				wantFrom := (i - 1 + n) % n
				if m.From != wantFrom || m.Round != round {
					errs <- errors.New("wrong sender or round in ring exchange")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPEndpointClaims(t *testing.T) {
	net := newTCPNet(t, 2)
	if _, err := net.Endpoint(0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint(0); err == nil {
		t.Fatal("double claim should error")
	}
	if _, err := net.Endpoint(-1); err == nil {
		t.Fatal("negative node should error")
	}
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	net := newTCPNet(t, 2)
	e0, _ := net.Endpoint(0)
	done := make(chan error, 1)
	go func() {
		_, err := e0.Recv()
		done <- err
	}()
	net.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after close = %v, want ErrClosed", err)
	}
}

// The sweep server holds TCP transports open across many jobs, so the
// shutdown edges matter: Send after Close must fail with ErrClosed
// instead of writing to a dead socket.
func TestTCPSendAfterClose(t *testing.T) {
	net := newTCPNet(t, 2)
	e0, _ := net.Endpoint(0)
	if err := e0.Send(1, Message{Round: 1, Kind: KindModel, Vec: tensor.Vector{1}}); err != nil {
		t.Fatal(err)
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	err := e0.Send(1, Message{Round: 2, Kind: KindModel, Vec: tensor.Vector{2}})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
}

// Recv on a closed transport drains buffered messages first, then reports
// ErrClosed forever — it must never block or return a zero message.
func TestTCPRecvOnClosedDrainsThenErrs(t *testing.T) {
	net := newTCPNet(t, 2)
	e0, _ := net.Endpoint(0)
	e1, _ := net.Endpoint(1)
	if err := e0.Send(1, Message{Round: 3, Kind: KindControl}); err != nil {
		t.Fatal(err)
	}
	// Wait for delivery before closing, so the message is buffered in the
	// inbox rather than in flight on the socket.
	m, err := e1.Recv()
	if err != nil || m.Round != 3 {
		t.Fatalf("recv before close: %v %+v", err, m)
	}
	net.Close()
	for i := 0; i < 3; i++ {
		if _, err := e1.Recv(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv %d on closed transport = %v, want ErrClosed", i, err)
		}
	}
}

// Close must be idempotent: the second call is a no-op that returns nil
// and must not double-close inboxes or connections.
func TestTCPDoubleClose(t *testing.T) {
	net := newTCPNet(t, 2)
	e0, _ := net.Endpoint(0)
	if err := e0.Send(1, Message{Round: 1, Kind: KindModel, Vec: tensor.Vector{1}}); err != nil {
		t.Fatal(err)
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := net.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	// Endpoint claims after close fail loudly too.
	if _, err := net.Endpoint(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Endpoint after Close = %v, want ErrClosed", err)
	}
}

func TestTCPAddrExposed(t *testing.T) {
	net := newTCPNet(t, 2)
	if net.Addr(0) == "" || net.Addr(0) == net.Addr(1) {
		t.Fatalf("addresses: %q %q", net.Addr(0), net.Addr(1))
	}
}

func BenchmarkLocalRoundTrip(b *testing.B) {
	net, _ := NewLocal(2, 4)
	defer net.Close()
	e0, _ := net.Endpoint(0)
	e1, _ := net.Endpoint(1)
	vec := tensor.NewVector(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e0.Send(1, Message{Round: 1, Kind: KindModel, Vec: vec})
		e1.Recv()
	}
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	net, err := NewTCP(2, "127.0.0.1", 4)
	if err != nil {
		b.Skip("no localhost sockets")
	}
	defer net.Close()
	e0, _ := net.Endpoint(0)
	e1, _ := net.Endpoint(1)
	vec := tensor.NewVector(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e0.Send(1, Message{Round: 1, Kind: KindModel, Vec: vec}); err != nil {
			b.Fatal(err)
		}
		if _, err := e1.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}
