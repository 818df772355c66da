package graph_test

import (
	"fmt"

	"repro/internal/graph"
)

// Build the paper's mixing matrix for a small topology and inspect one row:
// on a ring every node has degree 2, so each neighbor weight is
// 1/(max(2,2)+1) = 1/3 and the self weight absorbs the rest.
func ExampleMetropolis() {
	g, err := graph.Ring(6)
	if err != nil {
		panic(err)
	}
	w := graph.Metropolis(g)
	fmt.Printf("neighbors of 0: %v\n", g.Adj[0])
	fmt.Printf("W_01 = %.3f, W_05 = %.3f, W_00 = %.3f\n", w.Nbr[0][0], w.Nbr[0][1], w.Self[0])
	fmt.Printf("doubly stochastic: %v\n", w.CheckDoublyStochastic(g, 1e-12) == nil)
	// Output:
	// neighbors of 0: [1 5]
	// W_01 = 0.333, W_05 = 0.333, W_00 = 0.333
	// doubly stochastic: true
}

// Brown out two opposite nodes of a ring: the live subgraph splits into two
// arcs, and RenormalizeLiveTo rebuilds Metropolis-Hastings weights over it
// so mixing stays doubly stochastic — dead rows become the identity.
func ExampleRenormalizeLiveTo() {
	g, err := graph.Ring(6)
	if err != nil {
		panic(err)
	}
	live := []bool{true, false, true, true, false, true}
	fmt.Printf("live components: %d\n", g.LiveComponentsScratch(live, make([]bool, g.N), nil))
	fmt.Printf("live degree of 0: %d\n", g.LiveDegree(live, 0))

	w := graph.NewWeights(g)
	graph.RenormalizeLiveTo(w, g, live)
	// Node 0 kept only the edge to node 5 (both now degree 1): weight 1/2.
	fmt.Printf("W_01 = %.1f, W_05 = %.1f, W_00 = %.1f\n", w.Nbr[0][0], w.Nbr[0][1], w.Self[0])
	// Dead node 1 holds its state: identity row.
	fmt.Printf("W_11 = %.1f\n", w.Self[1])
	fmt.Printf("still doubly stochastic: %v\n", w.CheckDoublyStochastic(g, 1e-12) == nil)
	// Output:
	// live components: 2
	// live degree of 0: 1
	// W_01 = 0.0, W_05 = 0.5, W_00 = 0.5
	// W_11 = 1.0
	// still doubly stochastic: true
}
