package harvest

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/rng"
)

// The harvest policies must satisfy the engine's policy contract; the
// stateful one must be resettable, and all of them must declare their
// battery dependence so sim.Run can reject a fleet-less run.
var (
	_ core.Policy           = (*SoCThreshold)(nil)
	_ core.Policy           = (*SoCHysteresis)(nil)
	_ core.Policy           = (*SoCProportional)(nil)
	_ core.Policy           = (*HorizonPlan)(nil)
	_ core.ResettablePolicy = (*SoCHysteresis)(nil)

	_ core.BatteryDependent  = (*SoCThreshold)(nil)
	_ core.BatteryDependent  = (*SoCHysteresis)(nil)
	_ core.BatteryDependent  = (*SoCProportional)(nil)
	_ core.BatteryDependent  = (*HorizonPlan)(nil)
	_ core.ForecastDependent = (*HorizonPlan)(nil)
)

func policyFleet(t *testing.T, trace Trace, opt Options) *Fleet {
	t.Helper()
	devices := energy.AssignDevices(4, energy.Devices())
	f, err := NewFleet(devices, energy.CIFAR10Workload(), trace, opt)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fleetContext is the direct-drive round context for round t: an all-train
// round backed by f, with no schedule or forecast attached.
func fleetContext(f *Fleet, t int) core.RoundContext {
	return core.RoundContext{Round: t, Kind: core.RoundTrain, Battery: f}
}

func TestSoCThreshold(t *testing.T) {
	f := policyFleet(t, Constant{0}, Options{InitialSoC: 0.5})
	p, err := NewSoCThreshold(0.4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	if !p.Participate(0, fleetContext(f, 0), r) {
		t.Fatal("SoC 0.5 >= 0.4 should train")
	}
	p.MinSoC = 0.6
	if p.Participate(0, fleetContext(f, 1), r) {
		t.Fatal("SoC below threshold should skip")
	}
	if _, err := NewSoCThreshold(1.5); err == nil {
		t.Fatal("threshold > 1 should error")
	}
	if _, err := NewSoCThreshold(-0.1); err == nil {
		t.Fatal("negative threshold should error")
	}
}

func TestSoCThresholdDrainsExactlyOnTrain(t *testing.T) {
	f := policyFleet(t, Constant{0}, Options{CapacityRounds: 2, InitialSoC: 1})
	p, err := NewSoCThreshold(0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	before := f.ChargeWh(1)
	if !p.Participate(1, fleetContext(f, 0), r) {
		t.Fatal("affordable round refused")
	}
	if got := before - f.ChargeWh(1); math.Abs(got-f.TrainCostWh(1)) > 1e-12 {
		t.Fatalf("train drained %v, want %v", got, f.TrainCostWh(1))
	}
}

// TestPoliciesRefuseWithoutBattery pins the context contract: a round
// context with no battery attached means the policy has nothing to decide
// from, so every charge-aware policy skips rather than panics. (sim.Run
// rejects such a configuration up front; direct drivers get the safe
// behavior.)
func TestPoliciesRefuseWithoutBattery(t *testing.T) {
	threshold, _ := NewSoCThreshold(0)
	hysteresis, _ := NewSoCHysteresis(4, 0.1, 0.5)
	proportional, _ := NewSoCProportional(1)
	mpc, _ := NewHorizonPlan(0)
	ctx := core.ContextAt(nil, 0, 0)
	ctx.Forecast = []float64{1, 1}
	r := rng.New(7)
	for _, p := range []core.Policy{threshold, hysteresis, proportional, mpc} {
		if p.Participate(0, ctx, r) {
			t.Fatalf("%s trained with no battery in the context", p.Name())
		}
	}
}

func TestSoCHysteresisBand(t *testing.T) {
	// Start with no recharge: the node trains down through the low
	// threshold, goes dormant, and stays dormant until recharged above the
	// high threshold. One training round on this device drops SoC by
	// ~3.7e-4, so the band sits a few rounds below the initial charge.
	f := policyFleet(t, Constant{0}, Options{InitialSoC: 0.002})
	p, err := NewSoCHysteresis(f.Nodes(), 0.001, 0.0015)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	trained := 0
	for round := 0; round < 200 && !p.dormant[0]; round++ {
		if p.Participate(0, fleetContext(f, round), r) {
			trained++
		}
	}
	if trained == 0 {
		t.Fatal("node never trained before going dormant")
	}
	if !p.dormant[0] {
		t.Fatal("draining node never went dormant")
	}
	// Recharge into the band but below high: still dormant.
	f.chargeWh[0] = 0.0012 * f.capacityWh[0]
	if p.Participate(0, fleetContext(f, 999), r) || !p.dormant[0] {
		t.Fatal("node inside the band must stay dormant")
	}
	// Recharge above high: resumes.
	f.chargeWh[0] = 0.5 * f.capacityWh[0]
	if !p.Participate(0, fleetContext(f, 1000), r) {
		t.Fatal("recharged node should resume training")
	}
	if p.dormant[0] {
		t.Fatal("resumed node still marked dormant")
	}
}

func TestSoCHysteresisValidates(t *testing.T) {
	if _, err := NewSoCHysteresis(0, 0.1, 0.2); err == nil {
		t.Fatal("zero nodes should error")
	}
	if _, err := NewSoCHysteresis(4, 0.3, 0.2); err == nil {
		t.Fatal("low >= high should error")
	}
	if _, err := NewSoCHysteresis(4, -0.1, 0.2); err == nil {
		t.Fatal("negative low should error")
	}
}

func TestSoCProportionalProbabilityFollowsCharge(t *testing.T) {
	f := policyFleet(t, Constant{0}, Options{InitialSoC: 0.25})
	p, err := NewSoCProportional(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Probability(f.SoC(0)); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("linear probability %v, want 0.25", got)
	}
	p.Exponent = 2
	if got := p.Probability(f.SoC(0)); math.Abs(got-0.0625) > 1e-12 {
		t.Fatalf("quadratic probability %v, want 0.0625", got)
	}
	// Empirical rate over many flips tracks the probability.
	p.Exponent = 1
	r := rng.New(5)
	hits := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		if r.Float64() <= p.Probability(f.SoC(0)) {
			hits++
		}
	}
	if rate := float64(hits) / trials; math.Abs(rate-0.25) > 0.03 {
		t.Fatalf("empirical rate %v far from 0.25", rate)
	}
}

// TestSoCProportionalParticipationUnbiased: on a battery that always
// affords the step, a node trains at rate SoC^exponent, the share its
// aggregation weight is scheduled at: within 4σ of the binomial for every
// node's own rng.Derive stream, at each fixed SoC and exponent.
func TestSoCProportionalParticipationUnbiased(t *testing.T) {
	const nodes, draws = 4, 20000
	for _, exponent := range []float64{1, 2} {
		p, err := NewSoCProportional(exponent)
		if err != nil {
			t.Fatal(err)
		}
		for _, soc := range []float64{0.1, 0.5, 0.9} {
			ctx := core.RoundContext{Kind: core.RoundTrain, Battery: &fakeBattery{charge: soc, capacity: 1}} // cost 0: always affords
			want := math.Pow(soc, exponent)
			sigma := math.Sqrt(want * (1 - want) / draws)
			for node := 0; node < nodes; node++ {
				r := rng.Derive(11, math.Float64bits(exponent), math.Float64bits(soc), uint64(node))
				trained := 0
				for range draws {
					if p.Participate(node, ctx, r) {
						trained++
					}
				}
				if rate := float64(trained) / draws; math.Abs(rate-want) > 4*sigma {
					t.Errorf("exponent %g, SoC %g, node %d: trained at rate %.4f, want %.4f ± %.4f (4σ)", exponent, soc, node, rate, want, 4*sigma)
				}
			}
		}
	}
}

func TestSoCProportionalConsumesOnlyWhenTraining(t *testing.T) {
	f := policyFleet(t, Constant{0}, Options{CapacityRounds: 100, InitialSoC: 1})
	p, err := NewSoCProportional(1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	before := f.ChargeWh(0)
	trained := 0
	for round := 0; round < 50; round++ {
		if p.Participate(0, fleetContext(f, round), r) {
			trained++
		}
	}
	drained := before - f.ChargeWh(0)
	if want := float64(trained) * f.TrainCostWh(0); math.Abs(drained-want) > 1e-9 {
		t.Fatalf("drained %v for %d trained rounds, want %v", drained, trained, want)
	}
	if _, err := NewSoCProportional(0); err == nil {
		t.Fatal("zero exponent should error")
	}
}

// TestSoCHysteresisResetReplays pins the policy-side half of fleet reuse:
// dormancy is run state, so Fleet.Reset alone leaves a hysteresis fleet
// diverging on its second run, while Fleet.Reset + policy Reset replays
// the first run bit-for-bit. Consumed must track exactly that hazard.
func TestSoCHysteresisResetReplays(t *testing.T) {
	mk := func() (*Fleet, *SoCHysteresis) {
		devices := energy.AssignDevices(4, energy.Devices())
		f, err := NewFleet(devices, energy.CIFAR10Workload(), Constant{0},
			Options{CapacityRounds: 4, InitialSoC: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewSoCHysteresis(4, 0.3, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		return f, p
	}
	drive := func(f *Fleet, p *SoCHysteresis, rounds int) []int {
		var trained []int
		for tt := 0; tt < rounds; tt++ {
			n := 0
			for i := 0; i < f.Nodes(); i++ {
				if p.Participate(i, fleetContext(f, tt), nil) {
					n++
				}
			}
			f.EndRound(tt)
			trained = append(trained, n)
		}
		return trained
	}
	f, p := mk()
	if p.Consumed() {
		t.Fatal("fresh hysteresis policy reports consumed")
	}
	first := drive(f, p, 4) // every node trains twice, then goes dormant
	if first[0] == 0 || first[3] != 0 {
		t.Fatalf("scenario does not exercise dormancy: %v", first)
	}
	if !p.Consumed() {
		t.Fatal("dormant nodes not reported as consumed state")
	}
	// Fleet reset alone: dormancy leaks, the replay diverges (nodes start
	// dormant below the resume threshold and never train).
	if err := f.Reset(); err != nil {
		t.Fatal(err)
	}
	leaked := drive(f, p, 4)
	if leaked[0] != 0 {
		t.Fatalf("dormancy did not leak; the hazard this test pins is gone: %v", leaked)
	}
	// Fleet reset + policy reset: bit-identical replay.
	if err := f.Reset(); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if p.Consumed() {
		t.Fatal("Reset left the policy consumed")
	}
	replay := drive(f, p, 4)
	for i := range first {
		if replay[i] != first[i] {
			t.Fatalf("round %d: replay %v, first run %v", i, replay, first)
		}
	}
}

// fakeBattery is a single-node battery view with hand-set constants, so
// HorizonPlan's planning arithmetic can be pinned exactly.
type fakeBattery struct {
	charge, capacity, cutoff, cost, overhead float64
	trained                                  int
}

func (b *fakeBattery) SoC(int) float64         { return b.charge / b.capacity }
func (b *fakeBattery) ChargeWh(int) float64    { return b.charge }
func (b *fakeBattery) CapacityWh(int) float64  { return b.capacity }
func (b *fakeBattery) CutoffWh(int) float64    { return b.cutoff }
func (b *fakeBattery) TrainCostWh(int) float64 { return b.cost }
func (b *fakeBattery) OverheadWh(int) float64  { return b.overhead }
func (b *fakeBattery) TryTrain(int) bool {
	if b.charge-b.cost < b.cutoff {
		return false
	}
	b.charge -= b.cost
	b.trained++
	return true
}

func planCtx(b core.BatteryView, s core.Schedule, t int, forecast []float64) core.RoundContext {
	ctx := core.ContextAt(s, t, 0)
	ctx.Battery = b
	ctx.Forecast = forecast
	return ctx
}

// TestHorizonPlanSurplus: under abundant forecast arrivals every slot in
// the window is planned and the first decision executes.
func TestHorizonPlanSurplus(t *testing.T) {
	p, err := NewHorizonPlan(0)
	if err != nil {
		t.Fatal(err)
	}
	b := &fakeBattery{charge: 5, capacity: 10, cost: 1}
	forecast := []float64{1, 1, 1, 1, 1, 1}
	plan := p.Plan(0, planCtx(b, nil, 0, forecast))
	for k, train := range plan {
		if !train {
			t.Fatalf("surplus plan skipped slot %d: %v", k, plan)
		}
	}
	if !p.Participate(0, planCtx(b, nil, 0, forecast), nil) {
		t.Fatal("surplus first decision refused")
	}
	if b.trained != 1 {
		t.Fatalf("Participate trained %d times, want 1", b.trained)
	}
}

// TestHorizonPlanConservesThroughTrough is the forecast-awareness pin: the
// same battery state trains when the window promises early recharge and
// refuses when the window is dark — a decision no SoC rule can make.
func TestHorizonPlanConservesThroughTrough(t *testing.T) {
	p, err := NewHorizonPlan(0)
	if err != nil {
		t.Fatal(err)
	}
	// Charge 3, cost 1, overhead 0.5/round, 6-round window. Training now
	// leaves 2; overhead alone burns 3 over the window, so a dark window
	// browns the node out — but sun at k=2 refills it in time.
	dark := []float64{0, 0, 0, 0, 0, 0}
	sunny := []float64{0, 0, 4, 0, 0, 0}
	mk := func() *fakeBattery {
		return &fakeBattery{charge: 3, capacity: 10, cutoff: 0, cost: 1, overhead: 0.5}
	}
	if p.Participate(0, planCtx(mk(), nil, 0, dark), nil) {
		t.Fatal("trained into a dark window it cannot survive")
	}
	if !p.Participate(0, planCtx(mk(), nil, 0, sunny), nil) {
		t.Fatal("refused to train despite forecast recharge")
	}
	// The dark-window node still refuses even though the round itself is
	// affordable — exactly what separates it from SoCThreshold(0).
	if b := mk(); b.charge-b.cost < b.cutoff {
		t.Fatal("scenario broken: the round must be affordable in isolation")
	}
}

// TestHorizonPlanHonorsSchedule: sync slots of the coordinated Γ schedule
// are never planned, and the plan's training count is bounded by the
// window's train slots.
func TestHorizonPlanHonorsSchedule(t *testing.T) {
	p, err := NewHorizonPlan(0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewGamma(1, 1) // alternating train/sync
	if err != nil {
		t.Fatal(err)
	}
	b := &fakeBattery{charge: 8, capacity: 10, cost: 1}
	forecast := []float64{1, 1, 1, 1, 1, 1}
	plan := p.Plan(0, planCtx(b, g, 0, forecast))
	for k, train := range plan {
		if wantSlot := g.Kind(k) == core.RoundTrain; train && !wantSlot {
			t.Fatalf("planned training in sync slot %d: %v", k, plan)
		} else if wantSlot && !train {
			t.Fatalf("surplus plan skipped train slot %d: %v", k, plan)
		}
	}
	// Starting the window on a sync round, the first decision is a skip.
	if p.Participate(0, planCtx(b, g, 1, forecast), nil) {
		t.Fatal("trained in a coordinated sync round")
	}
}

// TestHorizonPlanParticipateMatchesPlan: Participate must execute exactly
// the plan's first decision across a spread of random scenarios.
func TestHorizonPlanParticipateMatchesPlan(t *testing.T) {
	p, err := NewHorizonPlan(0.1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(13)
	for trial := 0; trial < 1000; trial++ {
		b := &fakeBattery{
			charge:   10 * r.Float64(),
			capacity: 10,
			cutoff:   2 * r.Float64(),
			cost:     0.5 + r.Float64(),
			overhead: 0.5 * r.Float64(),
		}
		forecast := make([]float64, 1+r.Intn(12))
		for k := range forecast {
			forecast[k] = 2 * r.Float64()
		}
		planned := p.Plan(0, planCtx(b, nil, 0, forecast))[0]
		got := p.Participate(0, planCtx(b, nil, 0, forecast), nil)
		if got != planned {
			t.Fatalf("trial %d: Participate %v, Plan[0] %v (battery %+v, forecast %v)",
				trial, got, planned, b, forecast)
		}
		if got && b.trained != 1 || !got && b.trained != 0 {
			t.Fatalf("trial %d: TryTrain count %d inconsistent with decision %v", trial, b.trained, got)
		}
	}
}

func TestHorizonPlanValidatesAndRefusesEmptyWindow(t *testing.T) {
	if _, err := NewHorizonPlan(-0.1); err == nil {
		t.Fatal("negative reserve should error")
	}
	if _, err := NewHorizonPlan(1); err == nil {
		t.Fatal("reserve >= 1 should error")
	}
	p, err := NewHorizonPlan(0.05)
	if err != nil {
		t.Fatal(err)
	}
	b := &fakeBattery{charge: 10, capacity: 10, cost: 1}
	if p.Participate(0, planCtx(b, nil, 0, nil), nil) {
		t.Fatal("trained with no forecast window to plan over")
	}
	if got := p.Plan(0, planCtx(b, nil, 0, nil)); len(got) != 0 {
		t.Fatalf("empty window planned %v", got)
	}
}

// TestHorizonPlanReserveBinds: the reserve margin shifts the refusal point
// above the raw cutoff.
func TestHorizonPlanReserveBinds(t *testing.T) {
	loose, _ := NewHorizonPlan(0)
	tight, _ := NewHorizonPlan(0.4)
	forecast := []float64{0, 0}
	mk := func() *fakeBattery { return &fakeBattery{charge: 4.2, capacity: 10, cost: 1} }
	if !loose.Participate(0, planCtx(mk(), nil, 0, forecast), nil) {
		t.Fatal("no-reserve plan refused an affordable round")
	}
	// With reserve 0.4 the trajectory must stay above 4 Wh: training from
	// 4.2 dips to 3.2 and is refused.
	if tight.Participate(0, planCtx(mk(), nil, 0, forecast), nil) {
		t.Fatal("reserve margin did not bind")
	}
}

// Plan solves the window's greedy knapsack and returns the per-round
// training decisions: walking the window forward, each coordinated
// training slot trains when the debited trajectory still survives to the
// window's end with room for the reserve. Only plan[0] is ever executed
// (Participate); the rest is the policy's forward view, which the tests
// inspect. Plan is read-only on the battery.
func (p *HorizonPlan) Plan(node int, ctx core.RoundContext) []bool {
	plan := make([]bool, len(ctx.Forecast))
	b := ctx.Battery
	if b == nil || len(ctx.Forecast) == 0 {
		return plan
	}
	s := p.state(node, b)
	charge := b.ChargeWh(node)
	for k := range plan {
		if trainSlot(ctx, k) && charge-s.cost >= s.reserve && survives(charge-s.cost, k, ctx.Forecast, s) {
			plan[k] = true
			charge -= s.cost
		}
		charge -= s.overhead
		if charge < 0 {
			charge = 0
		}
		charge += ctx.Forecast[k]
		if charge > s.capacity {
			charge = s.capacity
		}
	}
	return plan
}
