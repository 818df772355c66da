package transport

import "sync"

// liveGate is the radio-silence state shared by the DeadNode and Flaky
// wrappers: a per-round liveness mask plus a counter of messages lost on
// dead edges. Callers hold their own lock around every method.
type liveGate struct {
	live    []bool // nil, or buf
	buf     []bool // the gate's copy of the last mask, kept across nil rounds
	dropped int
}

// set installs the live set, copying the mask into the gate's own buffer so
// the caller may reuse its slice. A nil mask marks every node live.
func (g *liveGate) set(live []bool) {
	if live == nil {
		g.live = nil
		return
	}
	g.buf = append(g.buf[:0], live...)
	g.live = g.buf
}

// edgeDown reports whether the (from, to) edge is incident to a dead node,
// counting the message as dropped when it is.
func (g *liveGate) edgeDown(from, to int) bool {
	if !alive(g.live, from) || !alive(g.live, to) {
		g.dropped++
		return true
	}
	return false
}

// alive treats nodes at or beyond the mask's length as live, so a short
// mask never panics.
func alive(live []bool, i int) bool {
	return live == nil || i >= len(live) || live[i]
}

// DeadNode wraps a Network and models brown-outs at the radio level: while
// a node is marked dead, every edge incident to it is down, and messages
// sent across those edges vanish silently — exactly what a transmitter sees
// when the peer's radio is unpowered. The simulation engine updates the
// live set once per round (from battery state) and routes around dead
// nodes; the wrapper enforces the physics for any traffic that is sent
// anyway, so a sender still pays its transmit cost while the packet is
// lost.
//
// Send never errors for a dropped message (the radio cannot know the peer
// is dead); Dropped counts the losses for diagnostics and metrics. With no
// live set installed (or a nil one) the wrapper is transparent.
type DeadNode struct {
	Inner Network

	mu   sync.Mutex
	gate liveGate
}

// SetLive installs the live set for the current round, copying the mask so
// the caller may reuse its slice. A nil mask marks every node live. Nodes
// at or beyond the mask's length are treated as live, so a short mask
// never panics.
func (d *DeadNode) SetLive(live []bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gate.set(live)
}

// Dropped returns how many messages have been lost on dead edges so far.
func (d *DeadNode) Dropped() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gate.dropped
}

// Endpoint wraps the inner endpoint of the node.
func (d *DeadNode) Endpoint(node int) (Endpoint, error) {
	ep, err := d.Inner.Endpoint(node)
	if err != nil {
		return nil, err
	}
	return &deadNodeEndpoint{node: node, inner: ep, net: d}, nil
}

// Close closes the inner network.
func (d *DeadNode) Close() error { return d.Inner.Close() }

type deadNodeEndpoint struct {
	node  int
	inner Endpoint
	net   *DeadNode
}

func (e *deadNodeEndpoint) Send(to int, m Message) error {
	e.net.mu.Lock()
	down := e.net.gate.edgeDown(e.node, to)
	e.net.mu.Unlock()
	if down {
		return nil
	}
	return e.inner.Send(to, m)
}

func (e *deadNodeEndpoint) Recv() (Message, error) { return e.inner.Recv() }
func (e *deadNodeEndpoint) Close() error           { return e.inner.Close() }
