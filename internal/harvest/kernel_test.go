package harvest

import (
	"math"
	"testing"

	"repro/internal/energy"
)

// The battery geometry checks and the initial-charge clamp live in
// buildFleetSpec: every new battery passes through them.
func TestNewBatteryValidates(t *testing.T) {
	w := energy.CIFAR10Workload()
	dev := energy.Devices()[0]
	build := func(d energy.Device, opt Options) (*Fleet, error) {
		return NewFleet([]energy.Device{d}, w, Constant{Wh: 0}, opt)
	}
	flat := dev
	flat.BatteryWh = 0
	if _, err := build(flat, Options{}); err == nil {
		t.Fatal("zero capacity should error")
	}
	if _, err := build(dev, Options{CutoffSoC: -0.1}); err == nil {
		t.Fatal("negative cutoff should error")
	}
	if _, err := build(dev, Options{CutoffSoC: 1}); err == nil {
		t.Fatal("cutoff >= capacity should error")
	}
	// The largest cutoff SoC below 1 still leaves the cutoff under capacity.
	f, err := build(dev, Options{CutoffSoC: math.Nextafter(1, 0)})
	if err != nil || !(f.CutoffWh(0) < f.CapacityWh(0)) {
		t.Fatalf("cutoff SoC one ulp under 1: err %v", err)
	}
	f, err = build(dev, Options{CapacityRounds: 10, InitialSoC: 1, CutoffSoC: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if f.ChargeWh(0) != f.CapacityWh(0) {
		t.Fatalf("a full battery holds %v of %v", f.ChargeWh(0), f.CapacityWh(0))
	}
	if c, _ := store(0, 10, -3); c != 0 {
		t.Fatalf("initial charge not clamped at 0: %v", c)
	}
}

func TestBatteryHarvestClampsAtCapacity(t *testing.T) {
	c, stored := store(9, 10, 5)
	if stored != 1 {
		t.Fatalf("stored %v, want 1 (room)", stored)
	}
	if c != 10 {
		t.Fatalf("charge %v, want full", c)
	}
	if c, stored := store(c, 10, -2); stored != 0 || c != 10 {
		t.Fatalf("negative harvest stored %v, charge %v", stored, c)
	}
}

func TestBatteryDrainClampsAtEmpty(t *testing.T) {
	c, got := drain(3, 5)
	if got != 3 {
		t.Fatalf("drained %v, want 3", got)
	}
	if c != 0 {
		t.Fatalf("charge %v after over-drain", c)
	}
	if c, got := drain(3, -1); got != 0 || c != 3 {
		t.Fatalf("negative drain removed %v, charge %v", got, c)
	}
}

func TestBatteryTryConsumeRespectsCutoff(t *testing.T) {
	const cutoff = 2
	c, ok := tryConsume(5, cutoff, 3)
	if !ok {
		t.Fatal("affordable round refused")
	}
	if c != 2 {
		t.Fatalf("charge %v, want 2", c)
	}
	// Next round would brown out: 2 - 0.5 < cutoff 2.
	left, ok := tryConsume(c, cutoff, 0.5)
	if ok {
		t.Fatal("round below cutoff accepted")
	}
	if left != c {
		t.Fatal("refused consume must not change charge")
	}
	if _, ok := tryConsume(c, cutoff, -1); ok {
		t.Fatal("negative cost accepted")
	}
	c, _ = store(c, 10, 4)
	if c, ok = tryConsume(c, cutoff, 4); !ok || c != 2 {
		t.Fatalf("recharged battery should train again, landing on the cutoff: ok %v charge %v", ok, c)
	}
}

func TestBatterySoC(t *testing.T) {
	f, err := NewFleet(energy.Devices()[:1], energy.CIFAR10Workload(), Constant{Wh: 0},
		Options{CapacityRounds: 20, InitialSoC: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.SoC(0)-0.25) > 1e-12 {
		t.Fatalf("SoC %v, want 0.25", f.SoC(0))
	}
	if !f.Usable(0) {
		t.Fatal("a quarter-full battery with no cutoff should be usable")
	}
}

// TestOptionsRejectNonFinite: NaN passes every `x < lo || x > hi` test, and
// flag.Float64 parses "NaN" and "Inf", so each numeric option must be
// refused by a condition a valid value satisfies — for both time models.
func TestOptionsRejectNonFinite(t *testing.T) {
	devices := energy.AssignDevices(2, energy.Devices())
	w := energy.CIFAR10Workload()
	fields := map[string]func(*Options, float64){
		"CapacityRounds": func(o *Options, v float64) { o.CapacityRounds = v },
		"InitialSoC":     func(o *Options, v float64) { o.InitialSoC = v },
		"CutoffSoC":      func(o *Options, v float64) { o.CutoffSoC = v },
		"IdleWh":         func(o *Options, v float64) { o.IdleWh = v },
		"CommFrac":       func(o *Options, v float64) { o.CommFrac = v },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			opt := Options{CapacityRounds: 8, InitialSoC: 0.5}
			set(&opt, v)
			if _, err := NewFleet(devices, w, Constant{Wh: 0.001}, opt); err == nil {
				t.Errorf("NewFleet accepted %s = %v", name, v)
			}
			if _, err := NewVFleet(devices, w, Constant{Wh: 0.001}, opt, 60); err == nil {
				t.Errorf("NewVFleet accepted %s = %v", name, v)
			}
		}
	}
}
