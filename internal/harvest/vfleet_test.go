package harvest

import (
	"math"
	"testing"

	"repro/internal/energy"
)

// vfleetFixture builds a small VFleet over a constant trace with simple
// geometry for hand-checkable arithmetic.
func vfleetFixture(t *testing.T, trace Trace, opt Options, roundSec float64) *VFleet {
	t.Helper()
	devs := energy.AssignDevices(4, energy.Devices())
	f, err := NewVFleet(devs, energy.CIFAR10Workload(), trace, opt, roundSec)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewVFleetValidates(t *testing.T) {
	devs := energy.AssignDevices(2, energy.Devices())
	for _, rs := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewVFleet(devs, energy.CIFAR10Workload(), Constant{Wh: 1}, Options{}, rs); err == nil {
			t.Fatalf("round seconds %v accepted", rs)
		}
	}
	if _, err := NewVFleet(devs, energy.CIFAR10Workload(), Constant{Wh: 1}, Options{CutoffSoC: 2}, 10); err == nil {
		t.Fatal("bad fleet options accepted")
	}
}

func TestVFleetConservation(t *testing.T) {
	d, err := NewDiurnal(0.02, 6, LongitudePhase(4))
	if err != nil {
		t.Fatal(err)
	}
	f := vfleetFixture(t, d, Options{CapacityRounds: 4, InitialSoC: 0.5, CutoffSoC: 0.05, IdleWh: 0.001}, 10)
	start := f.TotalChargeWh()
	// Mix lump consumption with continuous advancement.
	for i := 0; i < f.Nodes(); i++ {
		f.AdvanceNode(i, 7.5)
		f.TrySync(i)
		if f.TryTrain(i) {
			f.TrainStep(i, 13+float64(i))
		}
	}
	f.AdvanceAll(95)
	got := f.TotalChargeWh()
	want := start + f.HarvestedWh() - f.ConsumedWh()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("conservation broken: charge %v, start+H-C %v", got, want)
	}
	if f.WastedWh() < 0 {
		t.Fatalf("negative waste %v", f.WastedWh())
	}
}

func TestVFleetTrainStepBrownsOutMidStep(t *testing.T) {
	// Zero harvest: the battery has cutoff + half a step of headroom at
	// admission... so admission must fail. Give it exactly enough for one
	// step, then drain continuously: the NEXT step browns out mid-flight.
	f := vfleetFixture(t, Constant{Wh: 0}, Options{CapacityRounds: 8, InitialSoC: 1, CutoffSoC: 0.5}, 10)
	i := 0
	// Usable headroom: capacity − cutoff = 8·cost − 4·cost = 4·cost.
	for step := 0; step < 4; step++ {
		if !f.TryTrain(i) {
			t.Fatalf("step %d should be affordable", step)
		}
		end := f.clock[i] + 5
		stop, browned := f.TrainStep(i, end)
		if browned || stop != end {
			t.Fatalf("step %d browned early at %v", step, stop)
		}
	}
	if f.TryTrain(i) {
		t.Fatal("fifth step admitted below cutoff headroom")
	}
}

func TestVFleetTrainStepAbortsAtCrossing(t *testing.T) {
	// Idle draw pushes the battery to cutoff mid-step: the step must abort
	// at the crossing with partial energy charged.
	f := vfleetFixture(t, Constant{Wh: 0}, Options{CapacityRounds: 8, InitialSoC: 1, CutoffSoC: 0.5, IdleWh: 4}, 10)
	// Per-second idle rate = 4/10 = 0.4 Wh/s; per-second train load with a
	// 10s step adds cost/10. Headroom is 4·cost Wh.
	i := 0
	cost := f.TrainCostWh(i)
	if !f.TryTrain(i) {
		t.Fatal("first step should be admitted")
	}
	loadW := 0.4 + cost/10
	wantCross := 4 * cost / loadW
	chargeBefore := f.ChargeWh(i)
	stop, browned := f.TrainStep(i, 10)
	if wantCross < 10 {
		if !browned {
			t.Fatalf("step should brown out (crossing at %v)", wantCross)
		}
		if math.Abs(stop-wantCross) > 1e-9 {
			t.Fatalf("crossing at %v, want %v", stop, wantCross)
		}
		// Partial energy stays spent: charge dropped to the cutoff.
		if math.Abs(f.ChargeWh(i)-f.CutoffWh(i)) > 1e-9 {
			t.Fatalf("charge %v, want cutoff %v", f.ChargeWh(i), f.CutoffWh(i))
		}
		if f.ChargeWh(i) >= chargeBefore {
			t.Fatal("no energy charged for aborted step")
		}
		if f.Usable(i) {
			t.Fatal("node still usable at cutoff")
		}
	} else {
		if browned {
			t.Fatalf("unexpected brown-out at %v", stop)
		}
	}
	if f.pending[i] {
		t.Fatal("pending flag survived TrainStep")
	}
}

func TestVFleetScanAffordWake(t *testing.T) {
	// Start empty over a constant trace: the wake crossing is exactly when
	// net inflow fills cutoff + cost.
	f := vfleetFixture(t, Constant{Wh: 0.05}, Options{CapacityRounds: 8, StartEmpty: true, CutoffSoC: 0.1, IdleWh: 0.01}, 10)
	i := 0
	cost := f.TrainCostWh(i)
	target := f.CutoffWh(i) + cost
	netW := (0.05 - 0.01) / 10 // Wh per second
	want := target / netW
	wake, brown := f.ScanAfford(i, cost, 1e7)
	if math.Abs(wake-want) > 1e-6 {
		t.Fatalf("wake at %v, want %v", wake, want)
	}
	if !math.IsInf(brown, 1) {
		t.Fatalf("rising trajectory reported brown-out at %v", brown)
	}
	// Deadline short of the crossing: no wake.
	wake, _ = f.ScanAfford(i, cost, want/2)
	if !math.IsInf(wake, 1) {
		t.Fatalf("wake %v inside short deadline, want +Inf", wake)
	}
	// The scan is pure: state untouched.
	if f.clock[i] != 0 || f.ChargeWh(i) != 0 {
		t.Fatal("ScanAfford mutated battery state")
	}
}

func TestVFleetScanAffordBrown(t *testing.T) {
	// Falling trajectory: idle outpaces harvest, so the scan reports the
	// cutoff crossing and never an affordable wake.
	f := vfleetFixture(t, Constant{Wh: 0.01}, Options{CapacityRounds: 4, InitialSoC: 0.5, CutoffSoC: 0.25, IdleWh: 0.05}, 10)
	i := 0
	netOutW := (0.05 - 0.01) / 10
	want := (f.ChargeWh(i) - f.CutoffWh(i)) / netOutW
	wake, brown := f.ScanAfford(i, 100*f.CapacityWh(i), 1e7)
	if !math.IsInf(wake, 1) {
		t.Fatalf("unaffordable target woke at %v", wake)
	}
	if math.Abs(brown-want) > 1e-6 {
		t.Fatalf("brown-out at %v, want %v", brown, want)
	}
}

func TestVFleetScanAffordMatchesRun(t *testing.T) {
	// The scan must predict exactly what run realizes on a diurnal trace
	// crossing several round boundaries.
	d, err := NewDiurnal(0.03, 4, LongitudePhase(4))
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *VFleet {
		return vfleetFixture(t, d, Options{CapacityRounds: 6, StartEmpty: true, CutoffSoC: 0.1, IdleWh: 0.002}, 5)
	}
	f := mk()
	i := 1
	cost := f.TrainCostWh(i)
	wake, _ := f.ScanAfford(i, cost, 1e6)
	if math.IsInf(wake, 1) {
		t.Skip("trace never affords a step in the scan window")
	}
	g := mk()
	g.AdvanceNode(i, wake)
	if g.ChargeWh(i)-cost < g.CutoffWh(i)-1e-9 {
		t.Fatalf("advanced to wake %v but charge %v cannot afford cost %v above cutoff %v",
			wake, g.ChargeWh(i), cost, g.CutoffWh(i))
	}
	if !g.TryTrain(i) {
		t.Fatal("TryTrain refused at the predicted wake time")
	}
}

func TestVFleetPendingLifecycle(t *testing.T) {
	f := vfleetFixture(t, Constant{Wh: 0}, Options{CapacityRounds: 8, InitialSoC: 1}, 10)
	i := 0
	if f.pending[i] {
		t.Fatal("fresh fleet has pending step")
	}
	if !f.TryTrain(i) {
		t.Fatal("admission failed")
	}
	if !f.pending[i] || !f.TryTrain(i) {
		t.Fatal("re-admission of pending step failed")
	}
	charge := f.ChargeWh(i)
	f.ClearPending(i)
	if f.pending[i] || f.ChargeWh(i) != charge {
		t.Fatal("ClearPending leaked state or energy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TrainStep without admission did not panic")
		}
	}()
	f.TrainStep(i, 10)
}

func TestVFleetAdvanceAllSkipsFutureClocks(t *testing.T) {
	f := vfleetFixture(t, Constant{Wh: 0.01}, Options{CapacityRounds: 8, InitialSoC: 0.5}, 10)
	// Node 0 realized a step eagerly out to t=50; AdvanceAll(30) must not
	// rewind or double-advance it.
	f.AdvanceNode(0, 50)
	c0 := f.ChargeWh(0)
	f.AdvanceAll(30)
	if f.clock[0] != 50 || f.ChargeWh(0) != c0 {
		t.Fatal("AdvanceAll touched a node with a future clock")
	}
	for i := 1; i < f.Nodes(); i++ {
		if f.clock[i] != 30 {
			t.Fatalf("node %d clock %v, want 30", i, f.clock[i])
		}
	}
}

func TestVFleetMatchesFleetOnRoundBoundaries(t *testing.T) {
	// Advancing a VFleet round by round with no training reproduces the
	// synchronous Fleet's idle trajectory: same per-round drain-then-store
	// lump order, same trace energy per round (Diurnal's continuous integral
	// differs from the sampled rate, so use Constant where both agree).
	trace := Constant{Wh: 0.004}
	opt := Options{CapacityRounds: 6, InitialSoC: 0.5, CutoffSoC: 0.1, IdleWh: 0.002}
	devs := energy.AssignDevices(4, energy.Devices())
	sync, err := NewFleet(devs, energy.CIFAR10Workload(), trace, opt)
	if err != nil {
		t.Fatal(err)
	}
	vf, err := NewVFleet(devs, energy.CIFAR10Workload(), trace, opt, 10)
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]bool, 4) // nobody live: idle draw only, no comm
	for r := 0; r < 12; r++ {
		sync.EndRoundLive(r, dead)
		vf.AdvanceAll(float64(r+1) * 10)
	}
	for i := 0; i < 4; i++ {
		if math.Abs(sync.ChargeWh(i)-vf.ChargeWh(i)) > 1e-9 {
			t.Fatalf("node %d diverged: fleet %v vfleet %v", i, sync.ChargeWh(i), vf.ChargeWh(i))
		}
	}
	if math.Abs(sync.ConsumedWh()-vf.ConsumedWh()) > 1e-9 {
		t.Fatalf("consumed diverged: fleet %v vfleet %v", sync.ConsumedWh(), vf.ConsumedWh())
	}
}

// At clock = 437·R for R = 3.913992 s, clock/R rounds to 436.99…: the
// round boundary must still be read as the start of round 437, so an
// advance over one round books round 437's energy (not round 436's) and a
// scan from there finds the charge round 437 brings. Round 436 is dark,
// round 437 on.
func TestVFleetRoundBoundaryBelowQuotient(t *testing.T) {
	const k = 437
	R := 3.913992
	at := func(r int) float64 { return float64(r) * R }
	if q := at(k) / R; int(q) != k-1 {
		t.Fatalf("fixture: %v/R = %v no longer rounds below %d", at(k), q, k)
	}
	rows := make([][]float64, k+4)
	for r := range rows {
		rows[r] = make([]float64, 4)
		if r >= k {
			rows[r] = []float64{0.02, 0.02, 0.02, 0.02}
		}
	}
	mk := func() *VFleet {
		trace, err := NewReplay(rows)
		if err != nil {
			t.Fatal(err)
		}
		f := vfleetFixture(t, trace, Options{CapacityRounds: 8, StartEmpty: true, CutoffSoC: 0.1}, R)
		f.AdvanceNode(0, at(k))
		if f.HarvestedWh() != 0 {
			t.Fatalf("dark rounds before %d harvested %v", k, f.HarvestedWh())
		}
		return f
	}
	f := mk()
	round := f.TraceRound(f.Clock(0))
	f.AdvanceNode(0, at(k+1))
	if got := f.HarvestedWh(); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("one round from %d·R harvested %v Wh, want round %d's 0.02", k, got, k)
	}
	if wake, _ := mk().ScanAfford(0, 0.001, at(k+4)); math.IsInf(wake, 1) || wake < at(k) {
		t.Fatalf("scan from %d·R: wake %v, want a finite wake in round %d", k, wake, k)
	}
	if round != k {
		t.Fatalf("TraceRound(%d·R) = %d", k, round)
	}
}

// TraceRound(t) is the k with k·R ≤ t < (k+1)·R in floats, for times on,
// just below and just above round boundaries with a non-dyadic R.
func TestTraceRoundHoldsTime(t *testing.T) {
	f := vfleetFixture(t, Constant{Wh: 0}, Options{}, 3.913992)
	R := f.RoundSeconds()
	for k := 0; k < 5000; k++ {
		for _, at := range []float64{float64(k) * R, math.Nextafter(float64(k)*R, 0), math.Nextafter(float64(k)*R, math.Inf(1))} {
			got := f.TraceRound(at)
			if !(float64(got)*R <= at && at < float64(got+1)*R) {
				t.Fatalf("TraceRound(%v) = %d, which does not hold it", at, got)
			}
		}
	}
}
