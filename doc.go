// Package repro is a from-scratch Go reproduction of "Energy-Aware
// Decentralized Learning with Intermittent Model Training" (Dhasade et al.,
// IPDPS 2024): the SkipTrain and SkipTrain-constrained algorithms, the
// D-PSGD / Greedy / All-Reduce baselines, and every substrate they need —
// a neural-network library, synthetic non-IID datasets, d-regular
// topologies with Metropolis-Hastings mixing, smartphone energy traces,
// battery dynamics with ambient-energy harvesting, and a deterministic
// round-synchronous simulation engine.
//
// The library lives under internal/; see README.md for the package map and
// reproduction status, and ROADMAP.md for the growth plan. bench_test.go
// regenerates every table and figure of the paper.
package repro
