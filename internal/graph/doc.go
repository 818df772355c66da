// Package graph builds and analyzes the communication topologies of the
// paper — undirected d-regular graphs on n nodes (the paper uses
// d ∈ {6, 8, 10} on n = 256), plus rings and complete graphs for baselines
// — and the mixing matrices decentralized SGD averages models with.
//
// # Topologies
//
// Regular samples a connected random d-regular graph via the pairing
// (configuration) model with double-edge-swap repair; Ring, Complete, and
// Circulant cover the deterministic baselines. All constructions are
// deterministic in their seed.
//
// # Mixing matrices
//
// Metropolis computes the Metropolis-Hastings weights of Section 2.2,
//
//	W_ij = 1 / (max(deg(i), deg(j)) + 1)   for each edge (i, j)
//	W_ii = 1 - Σ_j W_ij,
//
// which are symmetric and doubly stochastic on any undirected graph — the
// condition D-PSGD needs to converge. Weights are stored row-indexed
// against Graph.Adj so the simulator's aggregation loop reads them with no
// searching; SpectralGap provides the diagnostic the ablations report.
//
// # Live sets and brown-outs
//
// Intermittently-powered fleets lose nodes mid-run: a browned-out battery
// silences the node's radio, taking every incident edge down for the
// round. The live-set API (live.go) treats that as an induced subgraph
// G[live] over the powered nodes: LiveDegree, MeanLiveDegree, and
// LiveComponentsScratch describe the effective topology, and
// RenormalizeLiveTo rebuilds the Metropolis-Hastings matrix over G[live]
// into a caller's Weights — dead rows become
// the identity, so the matrix stays symmetric and doubly stochastic on the
// whole index set while the live component mixes exactly as Metropolis
// would on G[live]. The simulation engine calls it once per round when
// dead-node dropout is enabled (sim.Config.DropDeadNodes).
package graph
