package transport

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	m := Message{From: 3, To: 7, Round: 42, Kind: KindModel, Vec: tensor.Vector{1.5, -2.25, 0, 1e300}}
	buf, err := Marshal(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != EncodedSize(4) {
		t.Fatalf("encoded size %d, want %d", len(buf), EncodedSize(4))
	}
	got, n, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if got.From != 3 || got.To != 7 || got.Round != 42 || got.Kind != KindModel {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range m.Vec {
		if got.Vec[i] != m.Vec[i] {
			t.Fatalf("payload[%d] = %v, want %v", i, got.Vec[i], m.Vec[i])
		}
	}
}

func TestMarshalEmptyPayload(t *testing.T) {
	m := Message{From: 0, To: 1, Round: 0, Kind: KindControl}
	buf, err := Marshal(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Vec) != 0 || got.Kind != KindControl {
		t.Fatalf("control round trip: %+v", got)
	}
}

func TestMarshalValidation(t *testing.T) {
	if _, err := Marshal(nil, Message{From: 0, To: 1}); err == nil {
		t.Fatal("kind unset should error")
	}
	if _, err := Marshal(nil, Message{From: -1, To: 1, Kind: KindModel}); err == nil {
		t.Fatal("negative node should error")
	}
	if _, err := Marshal(nil, Message{From: 0, To: 1, Round: -5, Kind: KindModel}); err == nil {
		t.Fatal("negative round should error")
	}
}

func TestUnmarshalCorruption(t *testing.T) {
	m := Message{From: 1, To: 2, Round: 3, Kind: KindModel, Vec: tensor.Vector{1, 2}}
	buf, _ := Marshal(nil, m)
	if _, _, err := Unmarshal(buf[:10]); err == nil {
		t.Fatal("truncated header should error")
	}
	if _, _, err := Unmarshal(buf[:len(buf)-4]); err == nil {
		t.Fatal("truncated payload should error")
	}
	bad := append([]byte{}, buf...)
	bad[0] ^= 0xff
	if _, _, err := Unmarshal(bad); err == nil {
		t.Fatal("bad magic should error")
	}
	badKind := append([]byte{}, buf...)
	badKind[4] = 99
	if _, _, err := Unmarshal(badKind); err == nil {
		t.Fatal("unknown kind should error")
	}
}

func TestUnmarshalHostileLength(t *testing.T) {
	m := Message{From: 1, To: 2, Round: 3, Kind: KindModel, Vec: tensor.Vector{1}}
	buf, _ := Marshal(nil, m)
	// Overwrite count with an absurd value.
	buf[17], buf[18], buf[19], buf[20] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := Unmarshal(buf); err == nil {
		t.Fatal("hostile length should error, not allocate 32 GiB")
	}
}

func TestCodecProperty(t *testing.T) {
	f := func(from, to, round uint16, raw []byte) bool {
		vec := make(tensor.Vector, len(raw)%64)
		for i := range vec {
			vec[i] = float64(int(raw[i%max(1, len(raw))])-128) / 7.0
		}
		m := Message{From: int(from), To: int(to), Round: int(round), Kind: KindModel, Vec: vec}
		buf, err := Marshal(nil, m)
		if err != nil {
			return false
		}
		got, n, err := Unmarshal(buf)
		if err != nil || n != len(buf) {
			return false
		}
		if got.From != m.From || got.To != m.To || got.Round != m.Round {
			return false
		}
		if len(got.Vec) != len(m.Vec) {
			return false
		}
		for i := range vec {
			if got.Vec[i] != vec[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Messages marshalled back to back into one stream decode in order:
// Unmarshal reports exactly the bytes of the first.
func TestStreamReadWrite(t *testing.T) {
	var buf []byte
	msgs := []Message{
		{From: 0, To: 1, Round: 1, Kind: KindModel, Vec: tensor.Vector{1, 2, 3}},
		{From: 1, To: 0, Round: 1, Kind: KindControl},
		{From: 2, To: 1, Round: 2, Kind: KindModel, Vec: tensor.Vector{-1}},
	}
	for _, m := range msgs {
		var err error
		if buf, err = Marshal(buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, n, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if n != EncodedSize(len(want.Vec)) || got.From != want.From || got.Round != want.Round || len(got.Vec) != len(want.Vec) {
			t.Fatalf("msg %d mismatch: %+v (%d bytes)", i, got, n)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left over", len(buf))
	}
}

func TestLocalSendRecv(t *testing.T) {
	net, err := NewLocal(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	e0, _ := net.Endpoint(0)
	e1, _ := net.Endpoint(1)
	if err := e0.Send(1, Message{Round: 5, Kind: KindModel, Vec: tensor.Vector{9}}); err != nil {
		t.Fatal(err)
	}
	m, err := e1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 0 || m.To != 1 || m.Round != 5 || m.Vec[0] != 9 {
		t.Fatalf("got %+v", m)
	}
}

// Local hands the receiver the sender's own backing array: publishing a
// model costs no copy per edge. The price is the freeze-until-barrier rule
// on Endpoint.Send — the sender may write the buffer again only once every
// receiver has finished reading.
func TestLocalSendSharesVector(t *testing.T) {
	net, _ := NewLocal(3, 4)
	defer net.Close()
	e0, _ := net.Endpoint(0)
	e1, _ := net.Endpoint(1)
	e2, _ := net.Endpoint(2)
	vec := tensor.Vector{1, 2}
	for _, to := range []int{1, 2} {
		if err := e0.Send(to, Message{Kind: KindModel, Vec: vec}); err != nil {
			t.Fatal(err)
		}
	}
	for _, ep := range []Endpoint{e1, e2} {
		m, err := ep.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if &m.Vec[0] != &vec[0] {
			t.Fatal("Local must deliver the sender's vector itself, not a copy")
		}
	}
}

// A Send racing Close must come back with nil or ErrClosed, never panic
// on a closed inbox, and a sender blocked on a full inbox must be released.
// Not skipped in -short: the CI race job is where this test earns its keep.
func TestLocalSendCloseHammer(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		net, _ := NewLocal(4, 2) // small inboxes, so some senders block
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 4; i++ {
			ep, _ := net.Endpoint(i)
			wg.Add(1)
			go func(i int, ep Endpoint) {
				defer wg.Done()
				<-start
				for k := 0; ; k++ {
					err := ep.Send((i+1+k%3)%4, Message{Round: k, Kind: KindControl})
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Errorf("Send racing Close = %v, want nil or ErrClosed", err)
						return
					}
				}
			}(i, ep)
		}
		close(start)
		net.Close()
		wg.Wait()
	}
}

// Recv on a closed Local drains what is queued, then reports ErrClosed
// forever — the behaviour Close documents.
func TestLocalRecvOnClosedDrainsThenErrs(t *testing.T) {
	net, _ := NewLocal(2, 4)
	e0, _ := net.Endpoint(0)
	e1, _ := net.Endpoint(1)
	for r := 0; r < 2; r++ {
		if err := e0.Send(1, Message{Round: r, Kind: KindControl}); err != nil {
			t.Fatal(err)
		}
	}
	net.Close()
	for r := 0; r < 2; r++ {
		if m, err := e1.Recv(); err != nil || m.Round != r {
			t.Fatalf("queued message %d after Close: %+v, %v", r, m, err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := e1.Recv(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv %d on drained closed network = %v, want ErrClosed", i, err)
		}
	}
	if err := e0.Send(1, Message{Kind: KindControl}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
}

func TestLocalEndpointClaims(t *testing.T) {
	net, _ := NewLocal(2, 4)
	defer net.Close()
	if _, err := net.Endpoint(0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint(0); err == nil {
		t.Fatal("double claim should error")
	}
	if _, err := net.Endpoint(5); err == nil {
		t.Fatal("out-of-range node should error")
	}
}

func TestLocalCloseUnblocksRecv(t *testing.T) {
	net, _ := NewLocal(2, 4)
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

func TestLocalConcurrentExchange(t *testing.T) {
	// All-pairs exchange among 8 nodes: every node sends to all others and
	// receives n-1 messages; nothing deadlocks or is lost.
	const n = 8
	net, _ := NewLocal(n, n)
	defer net.Close()
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i], _ = net.Endpoint(i)
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if err := eps[i].Send(j, Message{Round: 1, Kind: KindModel, Vec: tensor.Vector{float64(i)}}); err != nil {
					errs <- err
					return
				}
			}
			seen := map[int]bool{}
			for k := 0; k < n-1; k++ {
				m, err := eps[i].Recv()
				if err != nil {
					errs <- err
					return
				}
				if seen[m.From] || int(m.Vec[0]) != m.From {
					errs <- errors.New("duplicate or corrupt message")
					return
				}
				seen[m.From] = true
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
