package transport_test

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// Move a model vector between two nodes over the in-process channel
// network: the receiver gets the sender's slice itself.
func ExampleLocal() {
	net, err := transport.NewLocal(2, 4)
	if err != nil {
		panic(err)
	}
	defer net.Close()
	a, _ := net.Endpoint(0)
	b, _ := net.Endpoint(1)

	if err := a.Send(1, transport.Message{
		Round: 0,
		Kind:  transport.KindModel,
		Vec:   tensor.Vector{0.5, -1.25},
	}); err != nil {
		panic(err)
	}
	m, err := b.Recv()
	if err != nil {
		panic(err)
	}
	fmt.Printf("from %d to %d: %v\n", m.From, m.To, m.Vec)
	// Output:
	// from 0 to 1: [0.5 -1.25]
}
