package transport

import (
	"testing"

	"repro/internal/tensor"
)

func TestDeadNodeDropsIncidentEdges(t *testing.T) {
	inner, err := NewLocal(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	dn := &DeadNode{Inner: inner}
	eps := make([]Endpoint, 3)
	for i := range eps {
		if eps[i], err = dn.Endpoint(i); err != nil {
			t.Fatal(err)
		}
	}
	dn.SetLive([]bool{true, false, true})

	// live -> dead: silently dropped, no error.
	if err := eps[0].Send(1, Message{Kind: KindModel, Vec: tensor.Vector{1}}); err != nil {
		t.Fatalf("send to dead node errored: %v", err)
	}
	// dead -> live: also dropped.
	if err := eps[1].Send(2, Message{Kind: KindModel}); err != nil {
		t.Fatalf("send from dead node errored: %v", err)
	}
	// live -> live: delivered.
	if err := eps[0].Send(2, Message{Kind: KindModel, Vec: tensor.Vector{7}}); err != nil {
		t.Fatal(err)
	}
	m, err := eps[2].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 0 || m.Vec[0] != 7 {
		t.Fatalf("live edge corrupted: %+v", m)
	}
	if dn.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", dn.Dropped())
	}

	// Reviving the node restores its edges.
	dn.SetLive(nil)
	if err := eps[0].Send(1, Message{Kind: KindModel, Vec: tensor.Vector{3}}); err != nil {
		t.Fatal(err)
	}
	if m, err = eps[1].Recv(); err != nil || m.Vec[0] != 3 {
		t.Fatalf("revived edge broken: %+v, %v", m, err)
	}
	if dn.Dropped() != 2 {
		t.Fatalf("transparent sends counted as drops: %d", dn.Dropped())
	}
	if err := dn.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadNodeShortMaskIsLive(t *testing.T) {
	inner, _ := NewLocal(3, 4)
	dn := &DeadNode{Inner: inner}
	defer dn.Close()
	dn.SetLive([]bool{false}) // nodes 1, 2 beyond the mask: treated live
	e1, _ := dn.Endpoint(1)
	e2, _ := dn.Endpoint(2)
	if err := e1.Send(2, Message{Kind: KindControl}); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Recv(); err != nil {
		t.Fatal(err)
	}
	if dn.Dropped() != 0 {
		t.Fatalf("in-mask live edge dropped: %d", dn.Dropped())
	}
}

func TestFlakyRespectsLiveSet(t *testing.T) {
	inner, err := NewLocal(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	fl := &Flaky{Inner: inner, FailEvery: 1} // every counted send fails
	defer fl.Close()
	e0, err := fl.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	fl.SetLive([]bool{true, false})
	// Dead-incident sends are dropped before failure injection: no error,
	// no failure slot consumed.
	if err := e0.Send(1, Message{Kind: KindControl}); err != nil {
		t.Fatalf("dead edge consumed a failure slot: %v", err)
	}
	if fl.Dropped() != 1 || fl.sends != 0 {
		t.Fatalf("dropped=%d sends=%d, want 1/0", fl.Dropped(), fl.sends)
	}
	// Live edges still see the injected failures.
	fl.SetLive(nil)
	if err := e0.Send(1, Message{Kind: KindControl}); err != ErrInjected {
		t.Fatalf("live edge skipped injection: %v", err)
	}
}

// SetLive copies the mask into the gate's own buffer: the caller may reuse
// its slice at once, and installing a mask allocates only the first time,
// all-live (nil) rounds in between included.
func TestSetLiveCopiesIntoItsOwnBuffer(t *testing.T) {
	inner, _ := NewLocal(2, 4)
	dn := &DeadNode{Inner: inner}
	defer dn.Close()
	mask := []bool{true, false}
	dn.SetLive(mask)
	mask[1] = true // the caller's slice, reused: the gate must not see it
	e0, _ := dn.Endpoint(0)
	if err := e0.Send(1, Message{Kind: KindControl}); err != nil {
		t.Fatal(err)
	}
	if dn.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1: the gate read the caller's slice", dn.Dropped())
	}
	if allocs := testing.AllocsPerRun(10, func() { dn.SetLive(nil); dn.SetLive(mask) }); allocs != 0 {
		t.Fatalf("SetLive allocates %v times per round, want 0", allocs)
	}
}
