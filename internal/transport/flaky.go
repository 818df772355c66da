package transport

import (
	"fmt"
	"sync"
)

// Flaky wraps a Network and injects deterministic send failures, used to
// verify that the simulation engine surfaces transport errors instead of
// hanging or silently corrupting a round. Failures follow a fixed pattern:
// every FailEvery-th send across the whole network errors.
type Flaky struct {
	Inner Network
	// FailEvery makes every n-th Send fail (0 disables injection).
	FailEvery int

	mu    sync.Mutex
	sends int
}

// ErrInjected is returned by failed sends.
var ErrInjected = fmt.Errorf("transport: injected failure")

// Endpoint wraps the inner endpoint.
func (f *Flaky) Endpoint(node int) (Endpoint, error) {
	ep, err := f.Inner.Endpoint(node)
	if err != nil {
		return nil, err
	}
	return &flakyEndpoint{inner: ep, net: f}, nil
}

// Close closes the inner network.
func (f *Flaky) Close() error { return f.Inner.Close() }

type flakyEndpoint struct {
	inner Endpoint
	net   *Flaky
}

func (e *flakyEndpoint) Send(to int, m Message) error {
	e.net.mu.Lock()
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
