// Package core implements the paper's contribution: the SkipTrain family of
// energy-aware decentralized learning algorithms (Section 3).
//
// An algorithm is the product of two orthogonal decisions:
//
//   - a Schedule fixes the coordinated round pattern shared by all nodes —
//     D-PSGD trains every round, SkipTrain alternates Γtrain training
//     rounds with Γsync synchronization rounds (Section 3.1);
//   - a Policy lets each node decide, inside a coordinated training round,
//     whether to actually train — always (unconstrained), greedily until
//     the energy budget τ_i runs out, or probabilistically with
//     p_i = min(τ_i / T_train, 1) (SkipTrain-constrained, Section 3.2).
//
// A policy decides from the engine's per-node RoundContext — round index,
// horizon, coordinated schedule, the rounds the node has trained so far,
// live battery state (BatteryView), and an optional harvest forecast
// window — so charge- and forecast-aware policies (internal/harvest) plug
// into the same contract as the paper's static rules without smuggling
// engine state through their own fields. The budget policies read τ_i from
// a plain slice and the spent budget from RoundContext.Trained, so one
// policy value serves any number of runs.
//
// Every stochastic choice flows through a per-node RNG stream, so runs are
// reproducible bit-for-bit.
package core

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/rng"
)

// RoundKind is the coordinated type of a round.
type RoundKind int

const (
	// RoundTrain rounds perform train + share + aggregate (a full D-PSGD
	// round; Figure 2 "train").
	RoundTrain RoundKind = iota
	// RoundSync rounds perform share + aggregate only (Figure 2 "sync").
	RoundSync
)

// String returns the Figure 2 label of the round kind.
func (k RoundKind) String() string {
	if k == RoundTrain {
		return "train"
	}
	return "sync"
}

// Schedule fixes the coordinated round pattern. Rounds are 0-based.
type Schedule interface {
	// Kind returns the coordinated type of round t.
	Kind(t int) RoundKind
	// Name identifies the schedule in reports.
	Name() string
}

// AllTrain is the D-PSGD schedule: every round is a training round.
type AllTrain struct{}

// Kind always returns RoundTrain.
func (AllTrain) Kind(int) RoundKind { return RoundTrain }

// Name returns "all-train".
func (AllTrain) Name() string { return "all-train" }

// Gamma is the SkipTrain schedule: blocks of GammaTrain training rounds
// followed by GammaSync synchronization rounds (Algorithm 2, line 5:
// t mod (Γtrain+Γsync) < Γtrain selects training).
type Gamma struct {
	GammaTrain int
	GammaSync  int
}

// NewGamma validates and returns a Gamma schedule: Γtrain ≥ 1, Γsync ≥ 0,
// and a period Γtrain+Γsync that does not overflow int, which Kind and
// Window add.
func NewGamma(gammaTrain, gammaSync int) (Gamma, error) {
	if gammaTrain < 1 || gammaSync < 0 || gammaTrain > math.MaxInt-gammaSync {
		return Gamma{}, fmt.Errorf("core: invalid gamma schedule train=%d sync=%d", gammaTrain, gammaSync)
	}
	return Gamma{GammaTrain: gammaTrain, GammaSync: gammaSync}, nil
}

// Kind implements the Algorithm 2 round test.
func (g Gamma) Kind(t int) RoundKind {
	if t%(g.GammaTrain+g.GammaSync) < g.GammaTrain {
		return RoundTrain
	}
	return RoundSync
}

// Name returns e.g. "skiptrain(3,3)".
func (g Gamma) Name() string {
	return "skiptrain(" + strconv.Itoa(g.GammaTrain) + "," + strconv.Itoa(g.GammaSync) + ")"
}

// CountTrainRounds returns the exact number of coordinated training rounds
// a schedule yields over horizon T. For Gamma schedules this is the exact
// version of Eq. (4)'s T_train = Γtrain/(Γtrain+Γsync) * T; the paper's
// energy numbers (e.g. Table 3's 1008.71 Wh = 668 training rounds) come
// from this count, not from the real-valued formula.
func CountTrainRounds(s Schedule, T int) int {
	n := 0
	for t := 0; t < T; t++ {
		if s.Kind(t) == RoundTrain {
			n++
		}
	}
	return n
}

// Window is how many of a run's last rounds its readout averages: one full
// period Γtrain+Γsync of a Gamma schedule with sync rounds, so each phase
// counts once wherever the horizon falls in the period, and 1 for any
// other schedule.
func Window(s Schedule) int {
	if g, ok := s.(Gamma); ok && g.GammaSync > 0 {
		return g.GammaTrain + g.GammaSync
	}
	return 1
}

// ReadoutName names the readout, the nodes' mean accuracy over a run's last
// Window rounds, in every run's manifest, so a result cached under another
// readout is a miss.
const ReadoutName = "node-mean-over-period"

// TTrain returns Eq. (4): the nominal maximum number of training rounds
// T_train = Γtrain/(Γtrain+Γsync) * T used to derive training
// probabilities.
func (g Gamma) TTrain(T int) float64 {
	return float64(g.GammaTrain) / float64(g.GammaTrain+g.GammaSync) * float64(T)
}

// TrainingProbability returns Eq. (5): p_i = min(τ_i / T_train, 1).
func TrainingProbability(tau int, tTrain float64) float64 {
	if tTrain <= 0 {
		return 1
	}
	p := float64(tau) / tTrain
	if p > 1 {
		return 1
	}
	return p
}

// BatteryView is the per-node battery state a charge-aware policy may
// consult — and drain — while deciding. harvest.Fleet (round time) and
// harvest.VFleet (virtual time) implement it; the engine threads it through
// RoundContext so policies no longer hold fleet pointers of their own. All
// methods are safe for concurrent use across distinct nodes.
type BatteryView interface {
	// SoC returns node's state of charge in [0, 1].
	SoC(node int) float64
	// ChargeWh returns node's charge level in Wh.
	ChargeWh(node int) float64
	// CapacityWh returns node's battery capacity in Wh.
	CapacityWh(node int) float64
	// CutoffWh returns node's brown-out level in Wh: at or below it the
	// node cannot operate.
	CutoffWh(node int) float64
	// TrainCostWh returns the per-round training cost of node's device.
	TrainCostWh(node int) float64
	// OverheadWh returns the per-round non-training draw (idle +
	// communication) node pays regardless of participation.
	OverheadWh(node int) float64
	// TryTrain atomically spends node's training-round energy, reporting
	// whether the battery could afford it. It is the only training drain
	// path; policies call it after deciding to train.
	TryTrain(node int) bool
}

// RoundContext is everything the engine knows that a node may consult when
// deciding whether to train this round. It is built fresh per node per
// round from start-of-round state, so decisions are independent of phase
// interleaving and runs stay bit-reproducible at any GOMAXPROCS. Optional
// fields are nil when the run has no corresponding subsystem attached.
type RoundContext struct {
	// Round is t, 0-based. A virtual-time engine passes the node's own
	// step counter: each node advances its own clock.
	Round int
	// Horizon is the total round count T. Virtual-time engines pass the
	// node's step capacity within the simulated horizon; 0 when genuinely
	// open-ended.
	Horizon int
	// Kind is the coordinated kind of this round.
	Kind RoundKind
	// Trained is the number of rounds (steps, in a virtual-time engine)
	// the node has completed training before this one: τ_i minus Trained
	// is its remaining budget (Algorithm 2).
	Trained int
	// Schedule is the coordinated schedule, letting planning policies see
	// the kinds of future rounds. Nil means every round trains.
	Schedule Schedule
	// Battery is the live battery state of a harvest-coupled run; nil when
	// no fleet is attached.
	Battery BatteryView
	// Forecast holds the predicted energy (Wh) the node will harvest
	// during rounds Round, Round+1, ..., Round+len(Forecast)-1; nil when
	// no forecaster is attached. The slice is scratch owned by the engine,
	// valid only for the duration of the Participate call.
	Forecast []float64
}

// ContextAt returns the schedule-only context for round t of a horizon-T
// run: the minimal RoundContext built by engines and direct policy drivers
// that have no battery or forecast state to attach.
func ContextAt(s Schedule, t, horizon int) RoundContext {
	ctx := RoundContext{Round: t, Horizon: horizon, Schedule: s, Kind: RoundTrain}
	if s != nil {
		ctx.Kind = s.Kind(t)
	}
	return ctx
}

// Policy decides whether a node participates in a coordinated training
// round, from whatever slice of the round context it cares about.
// Implementations must be safe for concurrent use by distinct nodes; the
// per-node RNG is owned by the calling node.
type Policy interface {
	// Participate reports whether node trains in round ctx.Round. It may
	// drain the node's battery (BatteryView.TryTrain).
	Participate(node int, ctx RoundContext, r *rng.RNG) bool
	// Name identifies the policy in reports.
	Name() string
}

// ResettablePolicy is implemented by policies that carry run state — the
// hysteresis policy's dormancy flags — which a second run would silently
// inherit. The budget policies carry none: their spent budget is the
// engine's RoundContext.Trained.
// Both engines, sim.Run and async.Run, reject a consumed policy (sim.Run
// as it rejects a consumed harvest fleet); Reset rewinds the policy so the
// next run replays the first bit-for-bit.
type ResettablePolicy interface {
	Policy
	// Reset rewinds the policy to its construction state.
	Reset()
	// Consumed reports whether the policy carries state from a prior run.
	Consumed() bool
}

// BatteryDependent marks policies that can only decide from live battery
// state: both engines reject them when no battery is attached (sim.Run's
// harvest fleet, async.Run's trace), instead of letting them silently
// never train.
type BatteryDependent interface{ RequiresBattery() }

// ForecastDependent marks policies that can only decide from a harvest
// forecast window: both engines, sim.Run and async.Run, reject them when no
// forecaster is attached.
type ForecastDependent interface{ RequiresForecast() }

// AlwaysTrain participates in every training round (unconstrained setting).
type AlwaysTrain struct{}

// Participate always returns true.
func (AlwaysTrain) Participate(int, RoundContext, *rng.RNG) bool { return true }

// Name returns "always".
func (AlwaysTrain) Name() string { return "always" }

// GreedyPolicy trains in every round while the budget lasts, then stops —
// the Greedy baseline of Section 3.2. Tau[i] is node i's budget τ_i; the
// engine's count of node i's trained rounds (RoundContext.Trained) is what
// it has spent, so the policy holds no run state.
type GreedyPolicy struct {
	Tau []int
}

// Participate trains while node has budget left.
func (p GreedyPolicy) Participate(node int, ctx RoundContext, _ *rng.RNG) bool {
	return ctx.Trained < p.Tau[node]
}

// Name returns "greedy".
func (GreedyPolicy) Name() string { return "greedy" }

// ProbabilisticPolicy is the SkipTrain-constrained participation rule
// (Algorithm 2, lines 5-7): in a coordinated training round a node with
// remaining budget τ_i − Trained > 0 trains with probability p_i,
// spreading its budget across the whole horizon.
type ProbabilisticPolicy struct {
	tau   []int
	probs []float64
}

// NewProbabilisticPolicy derives per-node training probabilities from the
// schedule, horizon, and budgets τ, per Eq. (4)-(5).
func NewProbabilisticPolicy(g Gamma, T int, tau []int) *ProbabilisticPolicy {
	tTrain := g.TTrain(T)
	probs := make([]float64, len(tau))
	for i := range probs {
		probs[i] = TrainingProbability(tau[i], tTrain)
	}
	return &ProbabilisticPolicy{tau: tau, probs: probs}
}

// Participate implements Algorithm 2 lines 5-11: check the budget, then
// flip the coin.
func (p *ProbabilisticPolicy) Participate(node int, ctx RoundContext, r *rng.RNG) bool {
	if ctx.Trained >= p.tau[node] {
		return false
	}
	return r.Float64() <= p.probs[node]
}

// Name returns "probabilistic".
func (*ProbabilisticPolicy) Name() string { return "probabilistic" }

// Aggregation selects how models are combined after sharing.
type Aggregation int

const (
	// AggNeighborhood is the D-PSGD weighted neighborhood average
	// (Algorithm 1 line 8) using the Metropolis-Hastings matrix W.
	AggNeighborhood Aggregation = iota
	// AggGlobal is the hypothetical all-reduce of Figure 1: every round all
	// models are averaged globally.
	AggGlobal
)

// Algorithm bundles schedule, policy and aggregation into one of the
// paper's five configurations.
type Algorithm struct {
	Label       string
	Schedule    Schedule
	Policy      Policy
	Aggregation Aggregation
}

// DPSGD returns the baseline D-PSGD algorithm (Algorithm 1).
func DPSGD() Algorithm {
	return Algorithm{Label: "D-PSGD", Schedule: AllTrain{}, Policy: AlwaysTrain{}}
}

// AllReduce returns D-PSGD with global averaging every round, the upper
// bound of Figure 1.
func AllReduce() Algorithm {
	return Algorithm{Label: "All-Reduce", Schedule: AllTrain{}, Policy: AlwaysTrain{}, Aggregation: AggGlobal}
}

// SkipTrain returns the unconstrained SkipTrain algorithm with the given
// coordinated schedule.
func SkipTrain(g Gamma) Algorithm {
	return Algorithm{Label: fmt.Sprintf("SkipTrain Γt=%d Γs=%d", g.GammaTrain, g.GammaSync),
		Schedule: g, Policy: AlwaysTrain{}}
}

// SkipTrainConstrained returns the energy-constrained SkipTrain variant
// (Algorithm 2) for the given horizon and per-node budgets τ.
func SkipTrainConstrained(g Gamma, T int, tau []int) Algorithm {
	return Algorithm{Label: fmt.Sprintf("SkipTrain-constrained Γt=%d Γs=%d", g.GammaTrain, g.GammaSync),
		Schedule: g, Policy: NewProbabilisticPolicy(g, T, tau)}
}

// Greedy returns the Greedy baseline: train every round until the budget τ
// is exhausted, then only synchronize.
func Greedy(tau []int) Algorithm {
	return Algorithm{Label: "Greedy", Schedule: AllTrain{}, Policy: GreedyPolicy{Tau: tau}}
}
