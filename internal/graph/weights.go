package graph

import (
	"math"

	"repro/internal/rng"
)

// Weights is a sparse, row-indexed mixing matrix W aligned with a Graph:
// row i holds the self weight W_ii and one weight per neighbor, in the same
// order as Graph.Adj[i]. The aggregation step of Algorithm 1 (line 8) is
// x_i <- Self[i]*x_i + sum_k Nbr[i][k]*x_{Adj[i][k]}.
type Weights struct {
	Self []float64
	Nbr  [][]float64
}

// NewWeights returns the zero matrix aligned with g, rows in one slice.
func NewWeights(g *Graph) *Weights {
	edges := 0
	for _, adj := range g.Adj {
		edges += len(adj)
	}
	w, nbr := &Weights{Self: make([]float64, g.N), Nbr: make([][]float64, g.N)}, make([]float64, edges)
	for i, adj := range g.Adj {
		w.Nbr[i], nbr = nbr[:len(adj):len(adj)], nbr[len(adj):]
	}
	return w
}

// Metropolis computes the Metropolis-Hastings weights of Section 2.2:
//
//	W_ij = 1 / (max(deg(i), deg(j)) + 1)   for edges (i,j)
//	W_ii = 1 - sum_j W_ij
//
// The result is symmetric and doubly stochastic for any undirected graph,
// the condition D-PSGD needs to converge to a stationary point of Eq. (1).
func Metropolis(g *Graph) *Weights {
	w := NewWeights(g)
	for i, row := range w.Nbr {
		sum := 0.0
		for k, j := range g.Adj[i] {
			row[k] = 1.0 / float64(max(g.Degree(i), g.Degree(j))+1)
			sum += row[k]
		}
		w.Self[i] = 1 - sum
	}
	return w
}

// Apply computes dst = W * src for per-node scalar values (used by the
// spectral estimator; the simulator applies the same contraction to whole
// model vectors).
func (w *Weights) Apply(g *Graph, dst, src []float64) {
	for i := 0; i < g.N; i++ {
		s := w.Self[i] * src[i]
		for k, j := range g.Adj[i] {
			s += w.Nbr[i][k] * src[j]
		}
		dst[i] = s
	}
}

// SpectralGap estimates 1 - |lambda_2(W)| by power iteration on the
// subspace orthogonal to the all-ones vector. Larger gaps mean faster
// consensus; the paper's intuition that denser topologies need fewer
// synchronization rounds (Section 4.3) is this quantity.
func (w *Weights) SpectralGap(g *Graph, iters int, seed uint64) float64 {
	if g.N < 2 {
		return 1
	}
	r := rng.Derive(seed, 0x57ec)
	x := make([]float64, g.N)
	y := make([]float64, g.N)
	r.Normals(x)
	deflate(x)
	normalize(x)
	lambda := 0.0
	for it := 0; it < iters; it++ {
		w.Apply(g, y, x)
		deflate(y)
		lambda = norm(y)
		if lambda == 0 {
			return 1
		}
		for i := range y {
			y[i] /= lambda
		}
		x, y = y, x
	}
	return 1 - math.Abs(lambda)
}

func deflate(x []float64) {
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i := range x {
		x[i] -= mean
	}
}

func norm(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func normalize(x []float64) {
	n := norm(x)
	if n == 0 {
		return
	}
	for i := range x {
		x[i] /= n
	}
}
