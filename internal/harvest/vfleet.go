package harvest

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/energy"
)

// VFleet is the virtual-time driver behind the event-driven async
// simulator: the same bank of batteries as Fleet (same constructor core,
// same ledgered consume/settle, same kernel), but advanced along a per-node
// clock in virtual seconds instead of closed in lockstep rounds. Trace
// round k spans seconds [k·RoundSeconds, (k+1)·RoundSeconds) (TraceRound),
// and VFleet quantizes every trace to a per-round-uniform rate whose round
// totals come from the trace's continuous face (ContinuousTrace.EnergyBetween:
// closed form for Constant/Diurnal, step integration for Markov/Replay).
// Within one trace round the trajectory is therefore linear, so the
// kernel's timeToCharge/timeToCutoff solve the brown-out and
// charge-arrival crossings exactly, and the engine schedules them as
// events instead of polling per round.
//
// Accounting model, mirroring the round fleet at finer granularity:
// each settled sub-interval (at most one trace round) pays drain before
// storing harvest, drain clamping at empty and harvest at capacity; the
// harvested/consumed/wasted ledgers accumulate exactly what the batteries
// realize, so harvested − consumed − wasted = ΔCharge holds to float
// round-off — the invariant analyze.Auditor checks on the async telemetry
// stream. Training energy is spread uniformly over the step that spends
// it; a step whose battery hits the cutoff mid-flight aborts at the
// crossing with its partial energy already charged (the power-failure
// semantics of intermittent computing). Communication is a lump at gossip
// time. Crossing *searches* (ScanAfford) are pure simulations of the same
// lump arithmetic and never touch battery state.
//
// VFleet is driven from the async engine's single event-loop goroutine
// and makes no concurrency promises.
type VFleet struct {
	bank
	trace    ContinuousTrace
	roundSec float64
	clock    []float64 // per-node virtual-time cursor: how far settle has integrated

	// pending marks nodes whose TryTrain was admitted but whose training
	// drain has not been realized yet (TrainStep does that continuously).
	pending []bool
}

// NewVFleet builds the virtual-time fleet for the same fleet shape
// NewFleet accepts, plus the seconds-per-trace-round mapping.
func NewVFleet(devices []energy.Device, w energy.Workload, trace Trace, opt Options, roundSeconds float64) (*VFleet, error) {
	if !(roundSeconds > 0 && roundSeconds <= math.MaxFloat64) {
		return nil, fmt.Errorf("harvest: invalid round duration %v seconds", roundSeconds)
	}
	b, err := newBank(devices, w, trace, opt)
	if err != nil {
		return nil, err
	}
	n := len(devices)
	return &VFleet{
		bank:     b,
		trace:    AsContinuous(trace, n),
		roundSec: roundSeconds,
		clock:    make([]float64, n),
		pending:  make([]bool, n),
	}, nil
}

// RoundSeconds returns the virtual seconds one trace round spans.
func (f *VFleet) RoundSeconds() float64 { return f.roundSec }

// TraceRound returns the k with k·R ≤ t < (k+1)·R in floats, R the round
// length: the quotient t/R can round across k (437·R/R < 437 at R = 3.913992).
func (f *VFleet) TraceRound(t float64) int {
	k := int(t / f.roundSec)
	if float64(k)*f.roundSec > t {
		k--
	} else if float64(k+1)*f.roundSec <= t {
		k++
	}
	return k
}

// Clock returns node i's virtual-time cursor in seconds.
func (f *VFleet) Clock(i int) float64 { return f.clock[i] }

// CommCostWh returns node i's per-gossip communication lump — what
// TrySync spends.
func (f *VFleet) CommCostWh(i int) float64 { return f.commWh[i] }

// TraceName reports the attached trace's identity.
func (f *VFleet) TraceName() string { return f.trace.Name() }

// TryTrain admits or refuses node i's next training step by the kernel's
// all-or-nothing affordability rule (tryConsume) — the charge must cover
// the full training cost without dipping below the cutoff — but defers the
// drain itself to TrainStep, which realizes it continuously across the
// step (core.BatteryView; the battery policies end their decision with
// this call). The node must be advanced to the
// decision time first. A second admission before the first is realized or
// cleared just re-reports it.
func (f *VFleet) TryTrain(i int) bool {
	if f.pending[i] {
		return true
	}
	_, ok := tryConsume(f.chargeWh[i], f.cutoffWh[i], f.trainWh[i])
	f.pending[i] = ok
	return ok
}

// ClearPending withdraws an admitted training step that the engine
// decided not to run (e.g. the schedule made the step gossip-only after a
// policy probed affordability).
func (f *VFleet) ClearPending(i int) { f.pending[i] = false }

// TrySync atomically spends node i's per-gossip communication energy as a
// lump at its current clock, reporting affordability — the async
// counterpart of the per-round comm draw EndRound levies on live nodes.
func (f *VFleet) TrySync(i int) bool { return f.consume(i, f.commWh[i]) }

// rateWhPerSec returns the harvest rate (Wh/s) in effect during trace
// round k: the round's continuous-time energy spread uniformly over its
// seconds — the per-round-uniform quantization all VFleet trajectories
// use.
func (f *VFleet) rateWhPerSec(i, k int) float64 {
	return f.trace.EnergyBetween(i, float64(k), float64(k+1)) / f.roundSec
}

// AdvanceNode integrates node i's idle draw and harvest from its clock to
// virtual second t. Brown-out crossings are not detected here — the
// engine schedules those from ScanAfford before putting a node to sleep.
func (f *VFleet) AdvanceNode(i int, t float64) { f.run(i, t, 0, false) }

// AdvanceDetect advances node i's idle draw like AdvanceNode but stops at
// the first brown-out crossing — the walker for intervals where the node
// is occupied (a gossip-only step whose comm lump was already paid) and
// dipping below the cutoff must interrupt it. Returns the time reached
// and whether it stopped at a crossing.
func (f *VFleet) AdvanceDetect(i int, t float64) (stopT float64, browned bool) {
	return f.run(i, t, 0, true)
}

// AdvanceAll advances every node whose clock lags t — the whole-fleet
// checkpoint the engine takes at the horizon so the final ledger is
// settled to one instant. Nodes mid-step have already realized their step
// eagerly (clock ahead of t) and are left alone.
func (f *VFleet) AdvanceAll(t float64) {
	for i := range f.clock {
		if f.clock[i] < t {
			f.run(i, t, 0, false)
		}
	}
}

// TrainStep realizes the training step the last TryTrain(i) admitted over
// [the node's clock, end): the step's energy is spread uniformly on top
// of the idle draw while harvest arrives per the trace. If the battery
// hits its cutoff mid-step, the step aborts at the crossing time with the
// partial energy already charged — the caller discards the computation
// and schedules the brown-out event at the returned time. Returns the
// time reached (end, or the crossing) and whether it browned out.
func (f *VFleet) TrainStep(i int, end float64) (stopT float64, browned bool) {
	if !f.pending[i] {
		panic("harvest: TrainStep without an admitted TryTrain")
	}
	f.pending[i] = false
	start := f.clock[i]
	if end <= start {
		return start, false
	}
	return f.run(i, end, f.trainWh[i]/(end-start), true)
}

// run integrates node i from its clock to t under idle draw plus loadW
// (Wh/s), splitting at trace round boundaries so rates are constant per
// sub-interval. With detect set it stops at the first brown-out crossing,
// solved exactly on the linear sub-interval trajectory. Returns the time
// reached and whether it stopped at a crossing.
func (f *VFleet) run(i int, t float64, loadW float64, detect bool) (float64, bool) {
	idleW := f.idleWh / f.roundSec
	for f.clock[i] < t {
		clock := f.clock[i]
		k := f.TraceRound(clock)
		segEnd := math.Min(t, float64(k+1)*f.roundSec)
		harvestW := f.rateWhPerSec(i, k)
		drainW := idleW + loadW
		if detect && f.Usable(i) {
			if rel := timeToCutoff(f.chargeWh[i], f.cutoffWh[i], harvestW-drainW); clock+rel < segEnd {
				cross := clock + rel
				f.settle(i, cross, harvestW, drainW)
				// The crossing time is exact in real arithmetic; round-off
				// can leave the charge a few ulps above the cutoff. Book
				// the dust as drain and sit exactly on it.
				if over := f.chargeWh[i] - f.cutoffWh[i]; over > 0 {
					f.chargeWh[i], f.consumed[i] = f.cutoffWh[i], f.consumed[i]+over
				}
				return cross, true
			}
		}
		f.settle(i, segEnd, harvestW, drainW)
	}
	return t, false
}

// settle integrates constant harvest and drain rates (Wh/s) from node i's
// clock to t — drain before harvest, the order Fleet.EndRound applies per
// round — and moves the clock to t. run splits intervals at rate changes
// (trace round boundaries) and at solved crossings, so the rates are
// genuinely constant within one call; t at or before the clock is a no-op.
func (f *VFleet) settle(i int, t, harvestW, drainW float64) {
	dt := t - f.clock[i]
	if dt <= 0 {
		return
	}
	f.clock[i] = t
	f.bank.settle(i, drainW*dt, harvestW*dt)
}

// ScanAfford simulates node i forward from its current state under idle
// draw and trace harvest and returns the first time its charge affords
// costWh (wake — the charge-arrival crossing the engine turns into a
// wake-up event) along with the first time it crosses its cutoff on the
// way down (brown; +Inf when the trajectory never dips). The scan replays
// exactly the lump arithmetic run will realize, is pure — battery state
// and ledgers untouched — and is bounded by deadline: wake is +Inf when
// the target is not reached by then. Scanning a stateful trace samples its
// future rounds through the Integrator cache; that future is simply
// realized early and replays identically when the clock reaches it.
func (f *VFleet) ScanAfford(i int, costWh, deadline float64) (wake, brown float64) {
	capacity, cutoff := f.capacityWh[i], f.cutoffWh[i]
	target := cutoff + costWh
	charge := f.chargeWh[i]
	clock := f.clock[i]
	idleW := f.idleWh / f.roundSec
	brown = math.Inf(1)
	if affords(charge, cutoff, costWh) {
		return clock, brown
	}
	for clock < deadline {
		k := f.TraceRound(clock)
		segEnd := math.Min(deadline, float64(k+1)*f.roundSec)
		harvestW := f.rateWhPerSec(i, k)
		net := harvestW - idleW
		if math.IsInf(brown, 1) && charge > cutoff {
			if rel := timeToCutoff(charge, cutoff, net); clock+rel < segEnd {
				brown = clock + rel
			}
		}
		if rel := timeToCharge(charge, target, capacity, net); clock+rel <= segEnd {
			return clock + rel, brown
		}
		// Settle the segment exactly as settle would.
		dt := segEnd - clock
		charge, _ = drain(charge, idleW*dt)
		charge, _ = store(charge, capacity, harvestW*dt)
		clock = segEnd
		if affords(charge, cutoff, costWh) {
			return clock, brown
		}
	}
	return math.Inf(1), brown
}

// A VFleet is the battery state charge-aware policies see through the
// round context in the async engine.
var _ core.BatteryView = (*VFleet)(nil)
