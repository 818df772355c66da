package harvest

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/rng"
)

// The policies below implement core.Policy from live battery state,
// generalizing the paper's static SkipTrain-constrained rule
// p_i = min(τ_i / T_train, 1) (Eq. 5) to charge-aware rules
// p_i^t = f(SoC_i^t). They read the battery through the round context
// (core.RoundContext.Battery) rather than holding a fleet pointer of their
// own, so one policy value works against any fleet the engine attaches;
// all of them are marked core.BatteryDependent, and sim.Run rejects a run
// that pairs one with no fleet. HorizonPlan additionally consumes the
// context's harvest forecast window — the MPC-style planner the forecaster
// layer (forecast.go) exists to feed.

// SoCThreshold trains whenever the node's state of charge is at least
// MinSoC and the battery can afford a full round: the simplest
// duty-cycling rule of intermittent computing.
type SoCThreshold struct {
	MinSoC float64
}

// NewSoCThreshold validates and returns a threshold policy.
func NewSoCThreshold(minSoC float64) (*SoCThreshold, error) {
	if !(minSoC >= 0 && minSoC <= 1) {
		return nil, fmt.Errorf("harvest: threshold SoC %v outside [0, 1]", minSoC)
	}
	return &SoCThreshold{MinSoC: minSoC}, nil
}

// Participate trains iff SoC ≥ MinSoC and the round is affordable.
func (p *SoCThreshold) Participate(node int, ctx core.RoundContext, _ *rng.RNG) bool {
	b := ctx.Battery
	if b == nil || b.SoC(node) < p.MinSoC {
		return false
	}
	return b.TryTrain(node)
}

// Name returns "soc-threshold".
func (*SoCThreshold) Name() string { return "soc-threshold" }

// RequiresBattery marks the policy core.BatteryDependent.
func (*SoCThreshold) RequiresBattery() {}

// SoCHysteresis duty-cycles with two thresholds to avoid oscillating at a
// single cutoff: a node that falls below Low goes dormant and only resumes
// training after recharging above High — the checkpoint/restore pattern of
// intermittently-powered devices.
type SoCHysteresis struct {
	low, high float64
	dormant   []bool
}

// NewSoCHysteresis validates 0 ≤ low < high ≤ 1 and returns the policy for
// a fleet of the given size.
func NewSoCHysteresis(nodes int, low, high float64) (*SoCHysteresis, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("harvest: hysteresis policy for %d nodes", nodes)
	}
	if !(low >= 0 && low < high && high <= 1) {
		return nil, fmt.Errorf("harvest: hysteresis band [%v, %v] invalid", low, high)
	}
	return &SoCHysteresis{low: low, high: high, dormant: make([]bool, nodes)}, nil
}

// Participate applies the two-threshold rule. Dormancy state is strictly
// per-node, so concurrent calls for distinct nodes are race-free.
func (p *SoCHysteresis) Participate(node int, ctx core.RoundContext, _ *rng.RNG) bool {
	b := ctx.Battery
	if b == nil {
		return false
	}
	soc := b.SoC(node)
	if p.dormant[node] {
		if soc < p.high {
			return false
		}
		p.dormant[node] = false
	} else if soc < p.low {
		p.dormant[node] = true
		return false
	}
	return b.TryTrain(node)
}

// Name returns "soc-hysteresis".
func (*SoCHysteresis) Name() string { return "soc-hysteresis" }

// RequiresBattery marks the policy core.BatteryDependent.
func (*SoCHysteresis) RequiresBattery() {}

// Reset wakes every node (core.ResettablePolicy): dormancy is run state,
// not configuration, so a fleet rewound with Fleet.Reset needs its
// hysteresis policy Reset too (or rebuilt) for the next run to replay the
// first bit-for-bit. The threshold, proportional, and horizon-plan
// policies are stateless and need no counterpart.
func (p *SoCHysteresis) Reset() {
	for i := range p.dormant {
		p.dormant[i] = false
	}
}

// Consumed reports whether any node is dormant (core.ResettablePolicy):
// the only run state the policy carries, and exactly what a second run
// would silently inherit. sim.Run rejects a consumed policy.
func (p *SoCHysteresis) Consumed() bool {
	for _, d := range p.dormant {
		if d {
			return true
		}
	}
	return false
}

// SoCProportional trains with probability p_i^t = SoC_i^t raised to
// Exponent: the charge-aware generalization of Eq. 5, spreading expected
// consumption in proportion to available charge instead of a static budget
// ratio. Exponent 1 is linear; larger exponents hoard charge (train only
// when nearly full), smaller ones spend it eagerly.
type SoCProportional struct {
	Exponent float64
}

// NewSoCProportional validates and returns a proportional policy.
func NewSoCProportional(exponent float64) (*SoCProportional, error) {
	if !(exponent > 0 && exponent <= math.MaxFloat64) {
		return nil, fmt.Errorf("harvest: exponent %v is not positive and finite", exponent)
	}
	return &SoCProportional{Exponent: exponent}, nil
}

// Probability returns the training probability f(soc) = soc^Exponent.
func (p *SoCProportional) Probability(soc float64) float64 {
	return math.Pow(soc, p.Exponent)
}

// Participate flips the charge-proportional coin and consumes battery only
// when actually training (mirroring Algorithm 2 lines 5-11).
func (p *SoCProportional) Participate(node int, ctx core.RoundContext, r *rng.RNG) bool {
	b := ctx.Battery
	if b == nil {
		return false
	}
	if r.Float64() <= p.Probability(b.SoC(node)) {
		return b.TryTrain(node)
	}
	return false
}

// Name returns "soc-proportional".
func (*SoCProportional) Name() string { return "soc-proportional" }

// RequiresBattery marks the policy core.BatteryDependent.
func (*SoCProportional) RequiresBattery() {}

// HorizonPlan is the MPC-style forecast-aware policy: each round it solves
// a greedy knapsack over the node's forecast window — train in the rounds
// whose projected charge clears the training cost, subject to the
// coordinated Γ schedule and to never letting the projected trajectory dip
// below the brown-out cutoff plus a reserve margin — then executes only
// the window's first decision and replans next round. The lookahead is
// what the SoC rules above cannot have: a node facing a long forecast
// trough conserves charge to survive it, while a node about to waste
// arrivals on a full battery spends them on training instead.
type HorizonPlan struct {
	// ReserveSoC is the safety margin, as a fraction of capacity, kept
	// above the brown-out cutoff throughout the planned trajectory.
	ReserveSoC float64
}

// NewHorizonPlan validates the reserve margin and returns the policy.
func NewHorizonPlan(reserveSoC float64) (*HorizonPlan, error) {
	if reserveSoC < 0 || reserveSoC >= 1 {
		return nil, fmt.Errorf("harvest: horizon-plan reserve SoC %v outside [0, 1)", reserveSoC)
	}
	return &HorizonPlan{ReserveSoC: reserveSoC}, nil
}

// Name returns "horizon-plan".
func (*HorizonPlan) Name() string { return "horizon-plan" }

// RequiresBattery marks the policy core.BatteryDependent.
func (*HorizonPlan) RequiresBattery() {}

// RequiresForecast marks the policy core.ForecastDependent: with an empty
// window there is nothing to plan over, and the policy refuses to train
// rather than degrade into a silent threshold rule.
func (*HorizonPlan) RequiresForecast() {}

// planState captures the per-node constants of one planning problem.
type planState struct {
	cost, overhead, capacity, reserve float64
}

func (p *HorizonPlan) state(node int, b core.BatteryView) planState {
	capacity := b.CapacityWh(node)
	return planState{
		cost:     b.TrainCostWh(node),
		overhead: b.OverheadWh(node),
		capacity: capacity,
		reserve:  b.CutoffWh(node) + p.ReserveSoC*capacity,
	}
}

// survives reports whether a trajectory starting at charge just after the
// round-k training decision stays at or above the reserve through the rest
// of the window with no further training: each remaining round pays
// overhead (the low point, checked against the reserve), then harvests the
// forecast arrival, clamped at capacity — the same order the fleet's
// battery update applies.
func survives(charge float64, k int, forecast []float64, s planState) bool {
	for j := k; j < len(forecast); j++ {
		charge -= s.overhead
		if charge < s.reserve {
			return false
		}
		charge += forecast[j]
		if charge > s.capacity {
			charge = s.capacity
		}
	}
	return true
}

// trainSlot reports whether round ctx.Round+k is a coordinated training
// round; a nil schedule means every round trains.
func trainSlot(ctx core.RoundContext, k int) bool {
	return ctx.Schedule == nil || ctx.Schedule.Kind(ctx.Round+k) == core.RoundTrain
}

// Participate executes the plan's first decision: train now iff the round
// is affordable above the reserve and the debited trajectory survives the
// forecast window. The rest of the window's plan is never materialized.
func (p *HorizonPlan) Participate(node int, ctx core.RoundContext, _ *rng.RNG) bool {
	b := ctx.Battery
	if b == nil || len(ctx.Forecast) == 0 {
		return false
	}
	if !trainSlot(ctx, 0) {
		return false
	}
	s := p.state(node, b)
	charge := b.ChargeWh(node)
	if charge-s.cost < s.reserve || !survives(charge-s.cost, 0, ctx.Forecast, s) {
		return false
	}
	return b.TryTrain(node)
}
