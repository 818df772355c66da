package transport

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// Kind tags the payload semantics of a message.
type Kind uint8

const (
	// KindModel carries a flat model parameter vector x_i.
	KindModel Kind = iota + 1
	// KindControl carries scheduling/coordination signals.
	KindControl
	// KindJob, KindResult and KindProgress are the sweep service's JSON
	// byte frames: a job request, its reply, one progress event of it.
	KindJob
	KindResult
	KindProgress
)

// ValidKind reports whether k is a defined message kind. The codec rejects
// frames with undefined kinds, so extend this when adding a Kind.
func ValidKind(k Kind) bool { return k >= KindModel && k <= KindProgress }

// Message is one transfer between nodes. Vec is the flat model vector; for
// KindControl messages it may be empty.
//
// Vec is read-only on the receiving side. Over Local it is the sender's
// own slice, not a copy (see Endpoint.Send); decoded by Unmarshal it is a
// slice allocated for this message.
type Message struct {
	From  int
	To    int
	Round int
	Kind  Kind
	Vec   tensor.Vector
}

// Endpoint is one node's connection to the network. Send may be called
// concurrently; Recv must be called from a single goroutine (the owning
// node).
type Endpoint interface {
	// Send delivers m to node `to`. It blocks only when the destination
	// inbox is full. The sender must not write an element of m.Vec again
	// until every receiver is done reading that element: Local hands
	// receivers the very slice and copies nothing.
	Send(to int, m Message) error
	// Recv blocks until a message arrives or the endpoint closes, in which
	// case it returns ErrClosed.
	Recv() (Message, error)
	// Close releases the endpoint. Pending messages are discarded.
	Close() error
}

// ErrClosed is returned by Recv after Close.
var ErrClosed = errors.New("transport: endpoint closed")

// Local is an in-process network of n nodes backed by buffered channels.
// Messages carry the sender's vector itself (see Endpoint.Send).
type Local struct {
	n       int
	inboxes []chan Message
	mu      sync.Mutex // guards claimed
	claimed []bool
	// done is closed by Close. The inboxes never are: a Send that races
	// Close must find a channel it can still send on.
	done      chan struct{}
	closeOnce sync.Once
}

// NewLocal creates a channel network for n nodes with the given per-node
// inbox capacity. Capacity must exceed the maximum number of in-flight
// messages per node, or Send blocks until the receiver catches up.
func NewLocal(n, capacity int) (*Local, error) {
	if n < 1 || capacity < 1 {
		return nil, fmt.Errorf("transport: invalid local network n=%d capacity=%d", n, capacity)
	}
	l := &Local{n: n, inboxes: make([]chan Message, n), claimed: make([]bool, n), done: make(chan struct{})}
	for i := range l.inboxes {
		l.inboxes[i] = make(chan Message, capacity)
	}
	return l, nil
}

type localEndpoint struct {
	node int
	net  *Local
}

// Endpoint returns the endpoint of node. Each node's endpoint may be
// claimed once: a repeated claim errors instead of stealing messages.
func (l *Local) Endpoint(node int) (Endpoint, error) {
	if node < 0 || node >= l.n {
		return nil, fmt.Errorf("transport: node %d out of range [0,%d)", node, l.n)
	}
	if l.isClosed() {
		return nil, ErrClosed
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.claimed[node] {
		return nil, fmt.Errorf("transport: endpoint %d already claimed", node)
	}
	l.claimed[node] = true
	return &localEndpoint{node: node, net: l}, nil
}

// Close shuts the network down; subsequent Recv calls drain remaining
// messages then return ErrClosed.
func (l *Local) Close() error {
	l.closeOnce.Do(func() { close(l.done) })
	return nil
}

func (l *Local) isClosed() bool {
	select {
	case <-l.done:
		return true
	default:
		return false
	}
}

func (e *localEndpoint) Send(to int, m Message) error {
	if to < 0 || to >= e.net.n {
		return fmt.Errorf("transport: destination %d out of range", to)
	}
	m.From = e.node
	m.To = to
	if e.net.isClosed() {
		return ErrClosed
	}
	select {
	case e.net.inboxes[to] <- m:
		return nil
	case <-e.net.done:
		return ErrClosed
	}
}

func (e *localEndpoint) Recv() (Message, error) {
	inbox := e.net.inboxes[e.node]
	select {
	case m := <-inbox:
		return m, nil
	case <-e.net.done:
	}
	// Closed: hand out what is queued before reporting it.
	select {
	case m := <-inbox:
		return m, nil
	default:
		return Message{}, ErrClosed
	}
}

func (e *localEndpoint) Close() error { return nil }
