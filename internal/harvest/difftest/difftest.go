// Package difftest is the differential test harness for the battery
// arithmetic: it drives the production harvest.Fleet and an independently
// written reference — one oracle Battery struct per node (oracle.go) —
// through identical randomized scenario schedules and verifies they stay
// bit-identical — full per-node state, cumulative ledgers, whole-fleet
// statistics, and the streaming SoC quantile sketch — after every round.
// FuzzBatteryKernel does the same for random operation sequences on
// one-node fleets, in round time and in virtual time.
//
// The harness doubles as reusable test infrastructure: Scenarios()
// generates the (trace × policy × liveness × cutoff) table, and a Scenario
// builds fresh traces, fleets, policies, and forecasters on demand, so
// fleet, forecast, and rejoin tests in other packages can draw
// well-formed harvest setups from one table instead of hand-rolling their
// own. (harvest's own in-package tests cannot import this package — it
// imports harvest — which is why the differential tests live here.)
package difftest

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/harvest"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Trace kinds a Scenario can name. Each builds a fresh, independently
// seeded generator per call, so the two sides never share trace state.
const (
	TraceConstant = "constant"
	TraceDiurnal  = "diurnal"
	TraceMarkov   = "markov"
	TraceReplay   = "replay"
)

// Policy kinds a Scenario can name.
const (
	PolicyAlways       = "always"
	PolicyThreshold    = "threshold"
	PolicyHysteresis   = "hysteresis"
	PolicyProportional = "proportional"
	PolicyHorizon      = "horizon"
)

// Scenario is one cell of the differential table: a fleet shape, an energy
// arrival process, a participation policy, and a liveness pattern. The
// zero value is not runnable; take cells from Scenarios or fill every
// field.
type Scenario struct {
	// Name labels the cell in test output.
	Name string
	// Nodes and Rounds size the run.
	Nodes  int
	Rounds int
	// Seed derives every random stream in the cell: trace seeds, replay
	// matrices, policy RNGs, and the liveness masks.
	Seed uint64
	// Trace and Policy pick from the Trace*/Policy* kinds above.
	Trace  string
	Policy string
	// Options is the fleet shape (capacity, cutoff, idle draw, …).
	Options harvest.Options
	// Gamma > 0 runs a SkipTrain(Gamma, Gamma) schedule instead of
	// all-train, so sync rounds (policy never consulted) interleave.
	Gamma int
	// DropProb > 0 drives rounds through EndRoundLive with a random
	// liveness mask that marks each node dead with this probability — the
	// dead-radio accounting path. 0 closes rounds with EndRound.
	DropProb float64
	// Horizon > 0 attaches an oracle forecaster with this lookahead
	// window (required by PolicyHorizon).
	Horizon int
	// ResetAt > 0 resets fleets and policies after that many rounds and
	// keeps going — the grid-search reuse path.
	ResetAt int
}

// Workload returns the per-round workload every scenario prices devices
// under (the paper's CIFAR-10 setting).
func (s Scenario) Workload() energy.Workload { return energy.CIFAR10Workload() }

// Devices returns the scenario's device assignment: the paper's device mix
// cycled over Nodes.
func (s Scenario) Devices() []energy.Device {
	return energy.AssignDevices(s.Nodes, energy.Devices())
}

// meanTrainWh is the fleet-average per-round training cost, the natural
// scale for harvest rates.
func (s Scenario) meanTrainWh() float64 {
	return energy.NetworkRoundWh(s.Nodes, energy.Devices(), s.Workload()) / float64(s.Nodes)
}

// NewTrace builds a fresh trace generator for the scenario. Every call
// returns an independent instance with identical behavior — the property
// the differential driver needs to feed both sides the same arrivals.
func (s Scenario) NewTrace() (harvest.Trace, error) {
	mean := s.meanTrainWh()
	switch s.Trace {
	case TraceConstant:
		return harvest.Constant{Wh: 0.6 * mean}, nil
	case TraceDiurnal:
		return harvest.NewDiurnal(1.5*mean, 8, harvest.LongitudePhase(s.Nodes))
	case TraceMarkov:
		return harvest.NewMarkovOnOff(s.Nodes, 1.2*mean, 0.3, 0.4, s.Seed)
	case TraceReplay:
		r := rng.Derive(s.Seed, 0x7e91a7)
		wh := make([][]float64, 2*s.Rounds/3+1)
		for t := range wh {
			row := make([]float64, s.Nodes)
			for i := range row {
				row[i] = 2 * mean * r.Float64()
			}
			wh[t] = row
		}
		return harvest.NewReplay(wh)
	default:
		return nil, fmt.Errorf("difftest: unknown trace kind %q", s.Trace)
	}
}

// NewPolicy builds a fresh participation policy for the scenario. Stateful
// policies (hysteresis dormancy) are per-side state, so the driver calls
// this once per side.
func (s Scenario) NewPolicy() (core.Policy, error) {
	switch s.Policy {
	case PolicyAlways:
		return core.AlwaysTrain{}, nil
	case PolicyThreshold:
		return harvest.NewSoCThreshold(0.35)
	case PolicyHysteresis:
		return harvest.NewSoCHysteresis(s.Nodes, 0.25, 0.55)
	case PolicyProportional:
		return harvest.NewSoCProportional(1)
	case PolicyHorizon:
		return harvest.NewHorizonPlan(0.1)
	default:
		return nil, fmt.Errorf("difftest: unknown policy kind %q", s.Policy)
	}
}

// Schedule returns the scenario's coordinated round schedule.
func (s Scenario) Schedule() core.Schedule {
	if s.Gamma > 0 {
		return core.Gamma{GammaTrain: s.Gamma, GammaSync: s.Gamma}
	}
	return core.AllTrain{}
}

// Instance is one complete scenario binding: a production fleet plus its
// private trace, policy, and (optional) forecaster instances.
type Instance struct {
	Fleet      *harvest.Fleet
	Trace      harvest.Trace
	Policy     core.Policy
	Forecaster harvest.Forecaster
}

// Build constructs a fresh Instance. Nothing is shared with any other
// Instance, so two of them can be driven in lockstep and compared — and
// sim, analyze and experiment tests draw well-formed harvest setups from it.
func (s Scenario) Build() (*Instance, error) {
	trace, err := s.NewTrace()
	if err != nil {
		return nil, err
	}
	fleet, err := harvest.NewFleet(s.Devices(), s.Workload(), trace, s.Options)
	if err != nil {
		return nil, err
	}
	policy, err := s.NewPolicy()
	if err != nil {
		return nil, err
	}
	inst := &Instance{Fleet: fleet, Trace: trace, Policy: policy}
	if s.Horizon > 0 {
		if inst.Forecaster, err = harvest.NewOracle(trace); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// Scenarios generates the differential table: the cross product of every
// trace kind and policy kind, under shapes that exercise both liveness
// paths, both schedules, a brown-out cutoff, idle draw, and fleet sizes
// from 48 to 384 nodes.
func Scenarios() []Scenario {
	traces := []string{TraceConstant, TraceDiurnal, TraceMarkov, TraceReplay}
	policies := []string{PolicyAlways, PolicyThreshold, PolicyHysteresis, PolicyProportional, PolicyHorizon}
	var out []Scenario
	for ti, tr := range traces {
		for pi, pol := range policies {
			// Vary the shape deterministically across cells so cutoffs,
			// idle draw, liveness masks, schedules, and fleet sizes all get
			// coverage without a combinatorial blow-up.
			k := ti*len(policies) + pi
			s := Scenario{
				Name:   tr + "/" + pol,
				Nodes:  48 + 32*(k%3), // 48, 80, 112
				Rounds: 40,
				Seed:   0x9e3779b9 + uint64(k),
				Trace:  tr,
				Policy: pol,
				Options: harvest.Options{
					CapacityRounds: 6,
					InitialSoC:     0.6,
				},
			}
			if k%2 == 1 {
				s.Options.CutoffSoC = 0.25
				s.DropProb = 0.3
			}
			if k%3 == 2 {
				s.Options.IdleWh = 0.2 * s.meanTrainWh()
			}
			if k%4 == 3 {
				s.Gamma = 2
			}
			if pol == PolicyHorizon {
				s.Horizon = 8
			}
			out = append(out, s)
		}
	}
	// Larger fleets, one per trace kind, reset mid-run.
	for ti, tr := range traces {
		s := Scenario{
			Name:    tr + "/large",
			Nodes:   384,
			Rounds:  24,
			Seed:    0xc0ffee + uint64(ti),
			Trace:   tr,
			Policy:  PolicyHysteresis,
			Options: harvest.Options{CapacityRounds: 5, InitialSoC: 0.5, CutoffSoC: 0.2},
			ResetAt: 12,
		}
		out = append(out, s)
	}
	return out
}

// Diff drives a fresh production fleet and a fresh reference fleet (one
// oracle Battery per node, oracle.go) through the scenario in lockstep and
// returns an error describing the first divergence — any comparison is
// exact (==), never within-epsilon. A nil return means the fleet matched
// the oracle bit for bit after every round.
func Diff(s Scenario) error {
	a, err := s.Build()
	if err != nil {
		return fmt.Errorf("difftest %s: fleet build: %w", s.Name, err)
	}
	// The reference side owns a second trace, policy and forecaster; the
	// fleet built with them only lends its shape and is never driven.
	b, err := s.Build()
	if err != nil {
		return fmt.Errorf("difftest %s: reference build: %w", s.Name, err)
	}
	ref := newRefFleet(b.Fleet, b.Trace, s.Options)
	if err := compare(-1, s, a.Fleet, ref); err != nil {
		return err
	}
	if a.Fleet.Consumed() {
		return fmt.Errorf("difftest %s: fresh fleet reports Consumed", s.Name)
	}
	schedule := s.Schedule()
	// Per-node decision RNGs: one set per side, identically derived, so a
	// probabilistic policy draws the same stream on both.
	rngsA := decisionRNGs(s)
	rngsB := decisionRNGs(s)
	maskRNG := rng.Derive(s.Seed, 0xd1ffe)
	var scratchA, scratchB []float64
	if s.Horizon > 0 {
		scratchA = make([]float64, s.Horizon)
		scratchB = make([]float64, s.Horizon)
	}
	for t := 0; t < s.Rounds; t++ {
		if s.ResetAt > 0 && t == s.ResetAt {
			if err := a.Fleet.Reset(); err != nil {
				return fmt.Errorf("difftest %s: fleet reset: %w", s.Name, err)
			}
			if a.Fleet.Consumed() {
				return fmt.Errorf("difftest %s: fleet still Consumed after Reset", s.Name)
			}
			// The reference starts over from the shape fleet, which was
			// never driven, on its rewound trace.
			if tr, ok := b.Trace.(harvest.TraceResetter); ok {
				tr.ResetTrace()
			}
			ref = newRefFleet(b.Fleet, b.Trace, s.Options)
			for _, p := range []core.Policy{a.Policy, b.Policy} {
				if rp, ok := p.(core.ResettablePolicy); ok {
					rp.Reset()
				}
			}
			rngsA, rngsB = decisionRNGs(s), decisionRNGs(s)
		}
		kind := schedule.Kind(t)
		if kind == core.RoundTrain {
			for i := 0; i < s.Nodes; i++ {
				da := decide(a, a.Fleet, i, t, s, kind, schedule, scratchA, rngsA[i])
				db := decide(b, ref, i, t, s, kind, schedule, scratchB, rngsB[i])
				if da != db {
					return fmt.Errorf("difftest %s: round %d node %d: fleet decision %v, reference decision %v", s.Name, t, i, da, db)
				}
			}
		}
		// The same liveness mask feeds both sides; harvest rows come from
		// each side's private trace.
		var mask []bool
		if s.DropProb > 0 {
			mask = make([]bool, s.Nodes)
			for i := range mask {
				mask[i] = !maskRNG.Bernoulli(s.DropProb)
			}
		}
		var ra []float64
		if mask != nil {
			ra = a.Fleet.EndRoundLive(t, mask)
		} else {
			ra = a.Fleet.EndRound(t)
		}
		if err := compareRows("round harvest", t, s, ra, ref.endRound(t, mask)); err != nil {
			return err
		}
		if err := compareRows("arrived", t, s, a.Fleet.RoundArrivedWh(), ref.roundArrived); err != nil {
			return err
		}
		if err := compare(t, s, a.Fleet, ref); err != nil {
			return err
		}
	}
	if s.Rounds > 0 && !a.Fleet.Consumed() {
		return fmt.Errorf("difftest %s: fleet with closed rounds does not report Consumed", s.Name)
	}
	return nil
}

// decide runs one node's participation decision against one side's battery
// view, building the same round context the sim engine would.
func decide(inst *Instance, battery core.BatteryView, i, t int, s Scenario, kind core.RoundKind, schedule core.Schedule, scratch []float64, r *rng.RNG) bool {
	ctx := core.RoundContext{
		Round:    t,
		Horizon:  s.Rounds,
		Kind:     kind,
		Schedule: schedule,
		Battery:  battery,
	}
	if inst.Forecaster != nil {
		inst.Forecaster.Forecast(i, t, scratch)
		ctx.Forecast = scratch
	}
	return inst.Policy.Participate(i, ctx, r)
}

func decisionRNGs(s Scenario) []*rng.RNG {
	out := make([]*rng.RNG, s.Nodes)
	for i := range out {
		out[i] = rng.Derive(s.Seed, uint64(i), 0xdec1de)
	}
	return out
}

// sketchQuantiles are the probe points compared between the fleet's
// streamed SoC sketch and one fed from the reference each round.
var sketchQuantiles = []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}

// compare checks every per-node view and every whole-fleet statistic the
// fleet exposes against the reference — the statistics recomputed here from
// the reference's per-node state, in index order — plus the obs SoC sketch
// fed through SoCStats. t = -1 labels the pre-run comparison.
func compare(t int, s Scenario, f *harvest.Fleet, ref *refFleet) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("difftest %s: round %d: %s", s.Name, t, fmt.Sprintf(format, args...))
	}
	n := len(ref.batteries)
	if f.Nodes() != n {
		return fail("nodes %d vs %d", f.Nodes(), n)
	}
	socs, live := make([]float64, n), make([]bool, n)
	sumSoC, minSoC, depleted := 0.0, ref.SoC(0), 0
	refSketch := obs.NewSoCSketch()
	for i := 0; i < n; i++ {
		for _, p := range []struct {
			name      string
			got, want float64
		}{
			{"ChargeWh", f.ChargeWh(i), ref.ChargeWh(i)},
			{"SoC", f.SoC(i), ref.SoC(i)},
			{"CapacityWh", f.CapacityWh(i), ref.CapacityWh(i)},
			{"CutoffWh", f.CutoffWh(i), ref.CutoffWh(i)},
			{"TrainCostWh", f.TrainCostWh(i), ref.TrainCostWh(i)},
			{"OverheadWh", f.OverheadWh(i), ref.OverheadWh(i)},
			{"NodeHarvestedWh", f.NodeHarvestedWh(i), ref.harvested[i]},
			{"NodeConsumedWh", f.NodeConsumedWh(i), ref.consumed[i]},
		} {
			if p.got != p.want {
				return fail("node %d %s: fleet %v, reference %v", i, p.name, p.got, p.want)
			}
		}
		socs[i], live[i] = ref.SoC(i), ref.batteries[i].Usable()
		if f.Usable(i) != live[i] {
			return fail("node %d Usable: fleet %v, reference %v", i, f.Usable(i), live[i])
		}
		sumSoC += socs[i]
		minSoC = math.Min(minSoC, socs[i])
		if !live[i] {
			depleted++
		}
		refSketch.Observe(socs[i])
	}
	meanSoC := sumSoC / float64(n)
	for _, p := range []struct {
		name      string
		got, want float64
	}{
		{"HarvestedWh", f.HarvestedWh(), total(ref.harvested)},
		{"ConsumedWh", f.ConsumedWh(), total(ref.consumed)},
		{"WastedWh", f.WastedWh(), total(ref.wasted)},
	} {
		if p.got != p.want {
			return fail("%s: fleet %v, reference %v", p.name, p.got, p.want)
		}
	}
	if err := compareRows("SoCs", t, s, f.SoCs(), socs); err != nil {
		return err
	}
	for i, l := range f.Live() {
		if l != live[i] {
			return fail("Live mask node %d: fleet %v, reference %v", i, l, live[i])
		}
	}
	sketch := obs.NewSoCSketch()
	if mean, min, dep := f.SoCStats(sketch.Observe); mean != meanSoC || min != minSoC || dep != depleted {
		return fail("SoCStats: fleet (%v, %v, %d), reference (%v, %v, %d)", mean, min, dep, meanSoC, minSoC, depleted)
	}
	for _, q := range sketchQuantiles {
		qa, qb := sketch.Quantile(q), refSketch.Quantile(q)
		if qa != qb && !(math.IsNaN(qa) && math.IsNaN(qb)) {
			return fail("sketch quantile %g: fleet %v, reference %v", q, qa, qb)
		}
	}
	return nil
}

func compareRows(what string, t int, s Scenario, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("difftest %s: round %d: %s length %d vs %d", s.Name, t, what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("difftest %s: round %d: %s node %d: fleet %v, reference %v", s.Name, t, what, i, got[i], want[i])
		}
	}
	return nil
}
