package transport

import (
	"fmt"
	"sync"
)

// Flaky wraps a Network and injects deterministic send failures, used to
// verify that the simulation engine surfaces transport errors instead of
// hanging or silently corrupting a round. Failures follow a fixed pattern:
// every FailEvery-th send across the whole network errors.
//
// Flaky also understands per-round liveness: after SetLive, messages on
// edges incident to dead nodes are silently dropped (and counted) before
// failure injection, the same radio-silence semantics as DeadNode. This
// lets one wrapper exercise both failure modes — noisy links between live
// nodes, and dead links to browned-out ones — in the same run.
type Flaky struct {
	Inner Network
	// FailEvery makes every n-th Send fail (0 disables injection).
	FailEvery int

	mu    sync.Mutex
	sends int
	gate  liveGate
}

// ErrInjected is returned by failed sends.
var ErrInjected = fmt.Errorf("transport: injected failure")

// Endpoint wraps the inner endpoint.
func (f *Flaky) Endpoint(node int) (Endpoint, error) {
	ep, err := f.Inner.Endpoint(node)
	if err != nil {
		return nil, err
	}
	return &flakyEndpoint{node: node, inner: ep, net: f}, nil
}

// Close closes the inner network.
func (f *Flaky) Close() error { return f.Inner.Close() }

// SetLive installs the live set for the current round (copied; nil marks
// every node live). Messages on edges incident to dead nodes are dropped
// without error and without consuming a failure-injection slot.
func (f *Flaky) SetLive(live []bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gate.set(live)
}

// Dropped returns how many messages have been lost on dead edges so far.
func (f *Flaky) Dropped() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gate.dropped
}

type flakyEndpoint struct {
	node  int
	inner Endpoint
	net   *Flaky
}

func (e *flakyEndpoint) Send(to int, m Message) error {
	e.net.mu.Lock()
	if e.net.gate.edgeDown(e.node, to) {
		e.net.mu.Unlock()
		return nil
	}
	e.net.sends++
	fail := e.net.FailEvery > 0 && e.net.sends%e.net.FailEvery == 0
	e.net.mu.Unlock()
	if fail {
		return ErrInjected
	}
	return e.inner.Send(to, m)
}

func (e *flakyEndpoint) Recv() (Message, error) { return e.inner.Recv() }
func (e *flakyEndpoint) Close() error           { return e.inner.Close() }
