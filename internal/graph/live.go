package graph

// Live-set support: a browned-out node silences its radio, so for the
// duration of a round every edge incident to it disappears from the
// topology. The functions below operate on the induced subgraph G[live] —
// the graph restricted to the powered nodes — without materializing it:
// callers keep one static Graph and pass a per-round liveness mask.
//
// A liveness mask is a []bool of length Graph.N where live[i] reports that
// node i is powered this round. A nil mask means "all nodes live"
// everywhere below, so callers can use one code path for both the static
// and the intermittently-powered regime.

// LiveDegree returns node i's degree in the induced subgraph G[live]: the
// number of live neighbors. A dead node has live degree 0 by convention
// (its edges are down regardless of the neighbors' state).
func (g *Graph) LiveDegree(live []bool, i int) int {
	if live == nil {
		return g.Degree(i)
	}
	if !live[i] {
		return 0
	}
	d := 0
	for _, j := range g.Adj[i] {
		if live[j] {
			d++
		}
	}
	return d
}

// MeanLiveDegree returns the average LiveDegree over live nodes — the
// effective connectivity the mixing step actually sees this round. It is 0
// when no node is live.
func (g *Graph) MeanLiveDegree(live []bool) float64 {
	total, count := 0, 0
	for i := 0; i < g.N; i++ {
		if live != nil && !live[i] {
			continue
		}
		total += g.LiveDegree(live, i)
		count++
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// LiveComponentsScratch counts the connected components of the induced
// subgraph G[live]. A connected topology can fragment when brown-outs remove
// cut nodes; each fragment then runs consensus in isolation for the round.
// Dead nodes belong to no component; zero live nodes means zero components.
// A caller scans every round, so the scratch is its own: seen has length N
// and any contents, queue capacity N (a node is queued at most once), and
// nothing is allocated.
func (g *Graph) LiveComponentsScratch(live, seen []bool, queue []int) int {
	clear(seen)
	components := 0
	for s := 0; s < g.N; s++ {
		if seen[s] || (live != nil && !live[s]) {
			continue
		}
		components++
		seen[s] = true
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			for _, v := range g.Adj[queue[head]] {
				if !seen[v] && (live == nil || live[v]) {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return components
}

// RenormalizeLiveTo refills w, which is aligned with g (NewWeights), with
// the Metropolis-Hastings mixing matrix over the induced subgraph G[live]
// for a non-nil mask, keeping the Weights aligned with the full graph's
// adjacency so the aggregation loop needs no re-indexing:
//
//	W_ij = 1 / (max(dlive(i), dlive(j)) + 1)  for live i, j with edge (i,j)
//	W_ij = 0                                  when i or j is dead
//	W_ii = 1 - Σ_j W_ij                       for live i
//	W_ii = 1                                  for dead i
//
// where dlive is LiveDegree. The result is symmetric and row-stochastic,
// and — because dead rows and columns reduce to the identity — doubly
// stochastic on the whole index set. On the live component this is exactly
// Metropolis applied to G[live]: consensus contracts there while dead
// nodes hold their state, which is the drop-and-renormalize aggregation
// rule for brown-out rounds. Every entry is overwritten, so a caller
// renormalizing every round keeps one Weights.
func RenormalizeLiveTo(w *Weights, g *Graph, live []bool) {
	for i := 0; i < g.N; i++ {
		row := w.Nbr[i]
		clear(row)
		if !live[i] {
			w.Self[i] = 1
			continue
		}
		di := g.LiveDegree(live, i)
		sum := 0.0
		for k, j := range g.Adj[i] {
			if !live[j] {
				continue
			}
			row[k] = 1.0 / float64(max(di, g.LiveDegree(live, j))+1)
			sum += row[k]
		}
		w.Self[i] = 1 - sum
	}
}
