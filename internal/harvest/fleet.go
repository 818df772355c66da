package harvest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/par"
)

// Fleet is the round-time driver of a bank of batteries bound to a harvest
// Trace: it adds the round structure — TryTrain, the close-out, the fused
// sweep, Reset — to the bank's flat state, ledgers and read-only views.
//
// Within a round the engine (internal/sim) drives the fleet in two steps:
// policies call TryTrain(i) for nodes that decide to train, then EndRound
// pays every node's idle and communication draw and harvests ambient
// energy. SweepThreshold fuses both steps with the paper's SoC-threshold
// rule into one pass for million-node fleets. All mutable state is strictly
// per-node, so TryTrain may be called concurrently for distinct nodes;
// EndRound*, SweepThreshold, Reset, Consumed and the whole-fleet statistics
// must not race with per-node calls or each other. EndRound itself shards
// the close-out across GOMAXPROCS workers for large fleets — bit-identical
// to the serial path because no cross-node state exists.
type Fleet struct {
	bank
	initialWh []float64 // construction-time charge (post-clamp), for Reset
	trace     Trace

	roundHarvest []float64 // scratch: last round's per-node stored harvest
	roundArrived []float64 // scratch: last round's per-node arrived harvest
	liveMask     []bool    // scratch: the last Live snapshot

	// The round being closed, read by closeNode — the close-out's per-node
	// body, bound once so that a round allocates no closure.
	closeT    int
	closeLive []bool
	closeNode func(i int)

	// Sweep scratch, allocated by the first SweepThreshold: a fleet driven
	// per node (every grid cell) never pays for it.
	rowBuf     []float64    // RowTrace bulk fill for the current round
	shardStats []sweepShard // per-shard accumulators

	// roundsClosed counts EndRound/SweepThreshold calls since construction
	// or Reset. A fleet with closed rounds has drained batteries, advanced
	// any stateful trace, and accumulated ledgers; sim.Run refuses such a
	// fleet so state can never leak silently between runs (Consumed/Reset).
	roundsClosed int
}

// NewFleet builds a fleet of len(devices) nodes. Each node's training cost
// comes from its device under workload w (Eq. 2), its battery capacity from
// the device profile, and its recharge from trace.
func NewFleet(devices []energy.Device, w energy.Workload, trace Trace, opt Options) (*Fleet, error) {
	b, err := newBank(devices, w, trace, opt)
	if err != nil {
		return nil, err
	}
	n := len(devices)
	f := &Fleet{
		bank:         b,
		initialWh:    make([]float64, n),
		trace:        trace,
		roundHarvest: make([]float64, n),
		roundArrived: make([]float64, n),
		liveMask:     make([]bool, n),
	}
	f.closeNode = f.settleNode
	copy(f.initialWh, b.chargeWh)
	return f, nil
}

// NewSoAFleet forwards to NewFleet. It exists only because bench/, which
// only a benchmark PR may edit, still calls it; it goes with ROADMAP item
// 1(a). Nothing else may call it.
func NewSoAFleet(devices []energy.Device, w energy.Workload, trace Trace, opt Options) (*Fleet, error) {
	return NewFleet(devices, w, trace, opt)
}

// Consumed reports whether the fleet carries history a new run would
// silently inherit: a closed round (drained batteries, advanced trace
// state, idle/comm ledgers) or any training drain — TryTrain spends
// battery charge even when no round was ever closed. sim.Run rejects a
// consumed fleet; call Reset (or build a fresh fleet) between runs.
func (f *Fleet) Consumed() bool { return f.roundsClosed > 0 || sum(f.consumed) > 0 }

// Reset rewinds the fleet to its construction state: every battery back to
// its initial charge, all harvest/consumption/waste ledgers zeroed, and the
// trace rewound when it is stateful (TraceResetter). After Reset the fleet
// reproduces its first run bit-for-bit — the cheap fresh-state path for
// grid searches that sweep many runs over one fleet shape.
//
// Reset covers fleet state only. A stateful policy bound to the fleet
// (SoCHysteresis keeps per-node dormancy) must be rebuilt or Reset
// alongside, or the second run starts with the first run's dormancy.
//
// Reset fails on a stateful trace that does not implement TraceResetter:
// rewinding the batteries but not the chain state would silently splice two
// trajectories together. MarkovOnOff implements it; Constant, Diurnal, and
// Replay are stateless (pure functions of node and round) and need no
// rewind.
func (f *Fleet) Reset() error {
	switch tr := f.trace.(type) {
	case TraceResetter:
		tr.ResetTrace()
	case Constant, *Diurnal, *Replay: // stateless: nothing to rewind
	default:
		return fmt.Errorf("harvest: trace %s is not resettable (implement TraceResetter); build a fresh fleet instead", f.trace.Name())
	}
	copy(f.chargeWh, f.initialWh)
	for _, ledger := range [][]float64{f.harvested, f.consumed, f.wasted, f.roundHarvest, f.roundArrived} {
		clear(ledger)
	}
	f.roundsClosed = 0
	return nil
}

// Live snapshots the fleet's live set: live[i] reports that node i is above
// its brown-out cutoff and can power its radio this round. The simulation
// engine takes this snapshot at the start of every round and feeds it to
// graph.RenormalizeLiveTo and its aggregate phase, so liveness
// is decided once per round from battery state, never mid-phase. The slice
// is the fleet's own and is refilled by the next Live call: read it before
// then, or copy it.
func (f *Fleet) Live() []bool {
	for i := range f.liveMask {
		f.liveMask[i] = f.Usable(i)
	}
	return f.liveMask
}

// A Fleet is the battery state charge-aware policies see through the round
// context.
var _ core.BatteryView = (*Fleet)(nil)

// TryTrain atomically spends node i's training-round energy, reporting
// whether the battery could afford it. Policies call this after deciding to
// train; it is the only training drain path. Safe for concurrent use across
// distinct nodes.
func (f *Fleet) TryTrain(i int) bool { return f.consume(i, f.trainWh[i]) }

// EndRound closes round t: every node pays its communication and idle draw
// (clamped at empty — dead nodes cannot pay), then harvests trace energy
// into its battery. It returns the per-node energy actually stored this
// round; the slice is reused by the next EndRound call.
func (f *Fleet) EndRound(t int) []float64 { return f.EndRoundLive(t, nil) }

// EndRoundLive closes round t like EndRound, but nodes marked dead in the
// liveness mask pay only their idle draw: a browned-out radio sends and
// receives nothing, so it owes no communication energy. This is the
// battery-side counterpart of dropping the node's edges for the round; a
// nil mask recovers EndRound exactly.
func (f *Fleet) EndRoundLive(t int, live []bool) []float64 {
	// The close-out is sharded across workers for big fleets: every write
	// below is to node-i state only, and Trace implementations are
	// documented race-free across distinct nodes, so the parallel path is
	// bit-identical to the serial one. The trace is read per node here —
	// SweepThreshold alone uses the RowTrace bulk fill — so a fleet built
	// fresh per grid cell never allocates a row buffer or warms Diurnal's
	// day-row cache for the few dozen rounds it lives.
	f.closeT, f.closeLive = t, live
	par.For(len(f.chargeWh), parallelMinNodes, f.closeNode)
	// Written outside the parallel region: the close-out itself is
	// whole-fleet and documented not to race with per-node calls.
	f.roundsClosed++
	return f.roundHarvest
}

// parallelMinNodes is the fleet size below which a round stays serial:
// goroutine fan-out only pays for itself on large fleets. A test hook
// lowers it to pin serial/parallel bit-identity.
var parallelMinNodes = 256

// settleNode closes round closeT for node i.
func (f *Fleet) settleNode(i int) {
	draw := f.idleWh
	if f.closeLive == nil || f.closeLive[i] {
		draw += f.commWh[i]
	}
	arrived := f.trace.HarvestWh(i, f.closeT)
	f.roundHarvest[i] = f.settle(i, draw, arrived)
	f.roundArrived[i] = arrived
}

// RoundArrivedWh returns the per-node energy that arrived during the last
// closed round — stored plus wasted, before the battery's capacity clamp.
// This is what forecasters observe (ForecastObserver): a prediction targets
// what the source delivers, not what the battery happened to have room for.
// The slice is reused by the next EndRound call.
func (f *Fleet) RoundArrivedWh() []float64 { return f.roundArrived }

// SoCStats computes the fleet's whole-population charge statistics in one
// pass: mean and minimum state of charge plus the depleted count, visiting
// nodes in index order so the mean is bit-identical to MeanSoC. When
// observe is non-nil it receives every node's SoC in the same pass — the
// hook the engine points at a streaming quantile sketch (internal/obs) so
// SoC percentiles exist without materializing a per-node slice.
func (f *Fleet) SoCStats(observe func(soc float64)) (mean, min float64, depleted int) {
	sum := 0.0
	min = f.SoC(0)
	for i := range f.chargeWh {
		s := f.SoC(i)
		sum += s
		if s < min {
			min = s
		}
		if !f.Usable(i) {
			depleted++
		}
		if observe != nil {
			observe(s)
		}
	}
	return sum / float64(len(f.chargeWh)), min, depleted
}

// SoCs returns a snapshot of every node's state of charge.
func (f *Fleet) SoCs() []float64 {
	out := make([]float64, len(f.chargeWh))
	for i := range out {
		out[i] = f.SoC(i)
	}
	return out
}

// TraceName reports the attached trace's identity for logs and tables.
func (f *Fleet) TraceName() string { return f.trace.Name() }
