package graph

import (
	"fmt"
	"math"
)

// Diagnostics the tests check mixing matrices and topologies with.

// CheckDoublyStochastic verifies that rows and columns of W sum to 1 within
// tol and that all entries are non-negative. Column sums require the graph
// for indexing.
func (w *Weights) CheckDoublyStochastic(g *Graph, tol float64) error {
	colSum := make([]float64, g.N)
	for i := 0; i < g.N; i++ {
		if w.Self[i] < -tol {
			return fmt.Errorf("graph: negative self weight at %d: %v", i, w.Self[i])
		}
		row := w.Self[i]
		colSum[i] += w.Self[i]
		for k, j := range g.Adj[i] {
			v := w.Nbr[i][k]
			if v < -tol {
				return fmt.Errorf("graph: negative weight (%d,%d): %v", i, j, v)
			}
			row += v
			colSum[j] += v
		}
		if math.Abs(row-1) > tol {
			return fmt.Errorf("graph: row %d sums to %v", i, row)
		}
	}
	for j, s := range colSum {
		if math.Abs(s-1) > tol {
			return fmt.Errorf("graph: column %d sums to %v", j, s)
		}
	}
	return nil
}

// CheckSymmetric verifies W_ij == W_ji within tol.
func (w *Weights) CheckSymmetric(g *Graph, tol float64) error {
	for i := 0; i < g.N; i++ {
		for k, j := range g.Adj[i] {
			// find i in j's adjacency
			wji := math.NaN()
			for k2, i2 := range g.Adj[j] {
				if i2 == i {
					wji = w.Nbr[j][k2]
					break
				}
			}
			if math.IsNaN(wji) || math.Abs(w.Nbr[i][k]-wji) > tol {
				return fmt.Errorf("graph: W[%d,%d]=%v but W[%d,%d]=%v", i, j, w.Nbr[i][k], j, i, wji)
			}
		}
	}
	return nil
}

// hasEdge reports whether (i, j) is an edge.
func hasEdge(g *Graph, i, j int) bool {
	for _, k := range g.Adj[i] {
		if k == j {
			return true
		}
	}
	return false
}

// isSymmetric reports whether every edge appears in both adjacency lists.
func isSymmetric(g *Graph) bool {
	for i := 0; i < g.N; i++ {
		for _, j := range g.Adj[i] {
			if !hasEdge(g, j, i) {
				return false
			}
		}
	}
	return true
}

// renormalizeLive is RenormalizeLiveTo into fresh Weights; a nil mask gives
// Metropolis(g).
func renormalizeLive(g *Graph, live []bool) *Weights {
	if live == nil {
		return Metropolis(g)
	}
	w := NewWeights(g)
	RenormalizeLiveTo(w, g, live)
	return w
}
