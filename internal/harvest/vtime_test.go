package harvest

import (
	"math"
	"testing"
)

func TestConstantEnergyBetween(t *testing.T) {
	c := Constant{Wh: 0.4}
	if got := c.EnergyBetween(0, 1.5, 4.0); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("EnergyBetween(1.5, 4.0) = %v, want 1.0", got)
	}
	if got := c.EnergyBetween(0, 3, 3); got != 0 {
		t.Fatalf("empty interval = %v, want 0", got)
	}
	if got := c.EnergyBetween(0, 5, 2); got != 0 {
		t.Fatalf("reversed interval = %v, want 0", got)
	}
}

func TestDiurnalEnergyBetweenClosedForm(t *testing.T) {
	const peak, period = 2.0, 24
	d, err := NewDiurnal(peak, period, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One whole period integrates the daylight half-sine exactly:
	// peak·period/π.
	want := peak * float64(period) / math.Pi
	if got := d.EnergyBetween(0, 0, period); math.Abs(got-want) > 1e-9 {
		t.Fatalf("whole period = %v, want %v", got, want)
	}
	// Any period-long window sees the same energy regardless of offset.
	if got := d.EnergyBetween(0, 7.3, 7.3+period); math.Abs(got-want) > 1e-9 {
		t.Fatalf("offset period = %v, want %v", got, want)
	}
	// The night half contributes nothing.
	if got := d.EnergyBetween(0, period/2, period); got != 0 {
		t.Fatalf("night half = %v, want 0", got)
	}
	// Closed form matches numerical integration of the instantaneous rate.
	rate := func(x float64) float64 {
		if s := math.Sin(2 * math.Pi * x / period); s > 0 {
			return peak * s
		}
		return 0
	}
	t0, t1 := 3.25, 17.8
	num, steps := 0.0, 200000
	h := (t1 - t0) / float64(steps)
	for i := 0; i < steps; i++ {
		num += rate(t0+(float64(i)+0.5)*h) * h
	}
	if got := d.EnergyBetween(0, t0, t1); math.Abs(got-num) > 1e-6 {
		t.Fatalf("closed form %v vs numerical %v", got, num)
	}
}

func TestDiurnalEnergyBetweenPhaseShift(t *testing.T) {
	d, err := NewDiurnal(1.0, 12, LongitudePhase(4))
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 is phase-shifted half a period from node 0: its energy over
	// [0, 6) equals node 0's over [6, 12).
	a := d.EnergyBetween(2, 0, 6)
	b := d.EnergyBetween(0, 6, 12)
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("phase shift broken: node2[0,6)=%v node0[6,12)=%v", a, b)
	}
}

func TestEnergyBetweenAdditive(t *testing.T) {
	rep, err := NewReplay([][]float64{{0.5}, {0.0}, {1.25}})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := NewDiurnal(1.5, 6, nil)
	for _, tr := range []ContinuousTrace{Constant{Wh: 0.3}, d, rep} {
		whole := tr.EnergyBetween(0, 0.4, 5.7)
		split := tr.EnergyBetween(0, 0.4, 2.1) + tr.EnergyBetween(0, 2.1, 5.7)
		if math.Abs(whole-split) > 1e-12 {
			t.Fatalf("%s not additive: whole %v split %v", tr.Name(), whole, split)
		}
	}
}

func TestReplayEnergyBetweenWraps(t *testing.T) {
	rep, err := NewReplay([][]float64{{1.0}, {2.0}})
	if err != nil {
		t.Fatal(err)
	}
	// [1.5, 3.5) covers half of round 1 (rate 2), all of round 2 (wraps to
	// rate 1), half of round 3 (rate 2): 1 + 1 + 1 = 3.
	if got := rep.EnergyBetween(0, 1.5, 3.5); math.Abs(got-3.0) > 1e-12 {
		t.Fatalf("wrap integral = %v, want 3.0", got)
	}
	// Negative start clamps to 0.
	if got := rep.EnergyBetween(0, -2, 1); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("clamped start = %v, want 1.0", got)
	}
}

// countingTrace records every (node, round) HarvestWh call to pin the
// once-per-round discipline through the Integrator.
type countingTrace struct {
	calls map[[2]int]int
}

func (c *countingTrace) HarvestWh(node, t int) float64 {
	if c.calls == nil {
		c.calls = map[[2]int]int{}
	}
	c.calls[[2]int{node, t}]++
	return float64(t + 1)
}

func (c *countingTrace) Name() string { return "counting" }

func TestIntegratorSamplesOncePerRound(t *testing.T) {
	ct := &countingTrace{}
	in := NewIntegrator(ct, 2)
	// Query overlapping intervals and repeat lookups; the generator must
	// see each (node, round) exactly once, in increasing round order.
	in.EnergyBetween(0, 0, 3)
	in.EnergyBetween(0, 1.5, 2.5)
	in.EnergyBetween(0, 0, 4)
	if got := in.HarvestWh(0, 2); math.Abs(got-3.0) > 1e-12 {
		t.Fatalf("HarvestWh(0,2) = %v, want 3", got)
	}
	in.HarvestWh(0, 2) // repeat must hit the cache
	for k := 0; k < 4; k++ {
		if n := ct.calls[[2]int{0, k}]; n != 1 {
			t.Fatalf("round %d sampled %d times, want 1", k, n)
		}
	}
	if len(ct.calls) != 4 {
		t.Fatalf("generator saw %d samples, want 4", len(ct.calls))
	}
	// Step integration of the cached rates: rounds 0..2 have rates 1,2,3.
	if got := in.EnergyBetween(0, 0.5, 2.5); math.Abs(got-(0.5+2+1.5)) > 1e-12 {
		t.Fatalf("integrator EnergyBetween = %v, want 4.0", got)
	}
}

func TestIntegratorWrapsMarkovDeterministically(t *testing.T) {
	mk := func() *Integrator {
		tr, err := NewMarkovOnOff(3, 0.8, 0.3, 0.4, 99)
		if err != nil {
			t.Fatal(err)
		}
		return NewIntegrator(tr, 3)
	}
	a, b := mk(), mk()
	for node := 0; node < 3; node++ {
		for k := 0; k < 16; k++ {
			if a.HarvestWh(node, k) != b.HarvestWh(node, k) {
				t.Fatalf("markov integrator not deterministic at node %d round %d", node, k)
			}
		}
	}
	// ResetTrace replays the identical sequence.
	want := a.EnergyBetween(1, 0, 16)
	a.ResetTrace()
	if got := a.EnergyBetween(1, 0, 16); got != want {
		t.Fatalf("post-reset energy %v, want %v", got, want)
	}
}

func TestAsContinuous(t *testing.T) {
	c := Constant{Wh: 1}
	if _, ok := AsContinuous(c, 4).(Constant); !ok {
		t.Fatal("Constant should pass through AsContinuous unwrapped")
	}
	tr, err := NewMarkovOnOff(4, 1, 0.5, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := AsContinuous(tr, 4).(*Integrator); !ok {
		t.Fatal("MarkovOnOff should wrap in an Integrator")
	}
}

// oneNodeVFleet is a bare one-node virtual-time fleet with the given
// battery, for driving settle directly.
func oneNodeVFleet(capacity, charge, cutoff float64) *VFleet {
	return &VFleet{clock: []float64{0}, bank: bank{
		chargeWh: []float64{charge}, capacityWh: []float64{capacity}, cutoffWh: []float64{cutoff},
		harvested: []float64{0}, consumed: []float64{0}, wasted: []float64{0},
	}}
}

// TestBatteryAdvanceTo pins settle, the virtual-time advance of one battery
// under constant rates: drain before harvest, both clamps, the ledgers, the
// clock, and the no-op at or before the clock.
func TestBatteryAdvanceTo(t *testing.T) {
	f := oneNodeVFleet(10, 5, 1)
	// Net +0.5/s for 4s: drain 2, harvest 4.
	f.settle(0, 4, 1.0, 0.5)
	if stored, drained := f.harvested[0], f.consumed[0]; math.Abs(stored-4) > 1e-12 || math.Abs(drained-2) > 1e-12 {
		t.Fatalf("stored %v drained %v, want 4, 2", stored, drained)
	}
	if math.Abs(f.ChargeWh(0)-7) > 1e-12 || f.clock[0] != 4 {
		t.Fatalf("charge %v clock %v, want 7, 4", f.ChargeWh(0), f.clock[0])
	}
	// Time at or before the clock is a no-op.
	f.settle(0, 4, 1, 1)
	f.settle(0, 3, 1, 1)
	if f.harvested[0] != 4 || f.consumed[0] != 2 || f.wasted[0] != 0 || f.clock[0] != 4 {
		t.Fatalf("no-op advance moved energy or time: %v, %v, %v, clock %v", f.harvested[0], f.consumed[0], f.wasted[0], f.clock[0])
	}
	// Harvest clamps at capacity: 7 + 10·1 caps at 10, 7 wasted.
	f.settle(0, 14, 1.0, 0)
	if stored := f.harvested[0] - 4; math.Abs(stored-3) > 1e-12 || math.Abs(f.ChargeWh(0)-10) > 1e-12 || math.Abs(f.wasted[0]-7) > 1e-12 {
		t.Fatalf("clamped store %v charge %v wasted %v, want 3, 10, 7", stored, f.ChargeWh(0), f.wasted[0])
	}
	// Drain clamps at empty.
	f.settle(0, 100, 0, 1.0)
	if drained := f.consumed[0] - 2; math.Abs(drained-10) > 1e-12 || f.ChargeWh(0) != 0 {
		t.Fatalf("clamped drain %v charge %v, want 10, 0", drained, f.ChargeWh(0))
	}
}

func TestBatteryCrossingSolvers(t *testing.T) {
	const capacity, charge, cutoff = 10.0, 4.0, 1.0
	if got := timeToCharge(charge, 7, capacity, 0.5); math.Abs(got-6) > 1e-12 {
		t.Fatalf("timeToCharge rising = %v, want 6", got)
	}
	if got := timeToCharge(charge, 3, capacity, -2); got != 0 {
		t.Fatalf("timeToCharge already there = %v, want 0", got)
	}
	if got := timeToCharge(charge, 7, capacity, 0); !math.IsInf(got, 1) {
		t.Fatalf("timeToCharge flat = %v, want +Inf", got)
	}
	if got := timeToCharge(charge, 11, capacity, 5); !math.IsInf(got, 1) {
		t.Fatalf("timeToCharge beyond capacity = %v, want +Inf", got)
	}
	if got := timeToCutoff(charge, cutoff, -0.5); math.Abs(got-6) > 1e-12 {
		t.Fatalf("timeToCutoff falling = %v, want 6", got)
	}
	if got := timeToCutoff(charge, cutoff, 0.5); !math.IsInf(got, 1) {
		t.Fatalf("timeToCutoff charging = %v, want +Inf", got)
	}
	if got := timeToCutoff(cutoff, cutoff, -0.5); got != 0 {
		t.Fatalf("timeToCutoff at cutoff = %v, want 0", got)
	}
}

// A night round integrates to round-off of either sign between the two
// cumulatives; the energy it returns is never below 0 (an 8-node,
// period-24 trace once gave −5.3e-15 Wh, booked as negative waste).
func TestDiurnalEnergyBetweenNonNegative(t *testing.T) {
	d, err := NewDiurnal(0.03, 24, LongitudePhase(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for k := 0; k < 4800; k++ {
			if e := d.EnergyBetween(i, float64(k), float64(k+1)); e < 0 {
				t.Fatalf("node %d round %d: %v Wh", i, k, e)
			}
		}
	}
}
