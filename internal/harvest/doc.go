// Package harvest models per-node battery dynamics and ambient energy
// harvesting for intermittently-powered fleets, generalizing the paper's
// static energy budgets τ_i (Section 2.3) to live battery state.
//
// The paper's SkipTrain-constrained policy spreads a fixed, monotonically
// draining budget across the horizon with p_i = min(τ_i / T_train, 1)
// (Eq. 5). Real intermittently-powered deployments recharge: solar panels
// follow the sun, phones sit on chargers overnight, RF-powered sensors see
// bursty ambient energy. This package models that regime round by round.
//
// # Components
//
//   - The battery kernel (kernel.go) is the arithmetic of one battery as
//     five pure scalar functions: drain clamps at empty, store clamps at
//     capacity (the rest of an arrival is wasted), tryConsume is the
//     all-or-nothing training spend that never takes a node below its
//     brown-out cutoff, and timeToCharge/timeToCutoff solve the two
//     crossings on a linear trajectory. Nothing else in the package moves
//     a charge or tests it against its bounds.
//   - Trace generates the per-round harvested energy — constant trickle,
//     diurnal/solar sinusoid with per-node phase (longitude), a Markov
//     on-off chain for bursty sources, or a CSV replay.
//   - A bank (bank.go) is the state of a whole population — charge,
//     capacity, cutoff, per-device costs (energy.Device × energy.Workload)
//     and the harvest/consumption/waste ledgers as flat parallel slices —
//     with the two ledgered operations on it: consume (a load a node may
//     refuse) and settle (pay the unavoidable draw, then store the
//     arrival).
//   - Fleet drives a bank in round time: TryTrain, then a close-out — one
//     serial pass over the nodes — that pays idle and communication draw
//     and harvests. EndRoundLive is the brown-out-aware variant where dead
//     nodes owe idle draw only: their radio never powered up.
//   - VFleet drives a bank along a per-node clock in continuous virtual
//     time, for the event-driven engine (internal/async): crossings are
//     solved and scheduled, not polled.
//   - The policies in policy.go implement core.Policy from live
//     state-of-charge, generalizing Eq. 5's static p_i to p_i^t =
//     f(SoC_i^t): threshold, hysteresis (dormant until recharged),
//     charge-proportional, and the forecast-aware HorizonPlan (MPC:
//     plan a greedy training knapsack over the forecast window, execute
//     the first decision, replan next round). Policies read the battery
//     through the engine's round context (core.RoundContext.Battery),
//     never through fleet pointers of their own.
//   - The forecasters in forecast.go predict per-node arrivals for the
//     round context's forecast window: Oracle reads the trace generator
//     itself (traces expose their future via Lookahead without advancing
//     state), NoisyOracle corrupts it reproducibly, and Persistence
//     learns "tomorrow looks like today" from realized arrivals.
//
// # Liveness
//
// A node at or below its brown-out cutoff is dead: Usable reports false
// and Fleet.Live snapshots the whole fleet's mask. The simulation engine
// takes that snapshot at the start of every round; with dead-node dropout
// enabled (sim.Config.DropDeadNodes) the mask also silences the node's
// edges (nothing is sent to or from it) and re-normalizes the mixing matrix
// (graph.RenormalizeLiveTo), so a brown-out affects computation and
// communication alike.
//
// Every stochastic trace owns per-node RNG streams derived from the
// experiment seed, and all fleet state is strictly per-node, so simulations
// remain bit-reproducible regardless of GOMAXPROCS or goroutine
// interleaving.
//
// The subpackage difftest holds the reference oracle — a plain Battery
// struct with the same arithmetic written out independently — and drives
// both fleets against it bit for bit.
package harvest
