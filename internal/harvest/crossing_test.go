package harvest_test

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/harvest"
	"repro/internal/harvest/difftest"
)

// TestSoAFleetCrossingSolversMatchBattery pins the kernel's crossing solvers
// against the oracle Battery's: on a constant trace whose first trace round
// outlasts both crossings, the wake and brown-out times ScanAfford solves on
// the flat slices must be the oracle's TimeToCharge and TimeToCutoff for the
// same charge and net rate, bit for bit.
func TestSoAFleetCrossingSolversMatchBattery(t *testing.T) {
	const roundSec = 1e6
	devs := energy.AssignDevices(4, energy.Devices())
	w := energy.CIFAR10Workload()
	mean := energy.NetworkRoundWh(len(devs), energy.Devices(), w) / float64(len(devs)) // per-round training cost
	for _, tc := range []struct {
		name            string
		rising          bool
		harvest, idleWh float64
	}{
		{"rising", true, 12 * mean, 0.2 * mean},
		{"falling", false, 0.1 * mean, 12 * mean},
	} {
		opt := harvest.Options{CapacityRounds: 8, InitialSoC: 0.5, CutoffSoC: 0.1, IdleWh: tc.idleWh}
		f, err := harvest.NewVFleet(devs, w, harvest.Constant{Wh: tc.harvest}, opt, roundSec)
		if err != nil {
			t.Fatal(err)
		}
		harvestW, idleW := tc.harvest/roundSec, tc.idleWh/roundSec
		for i := 0; i < f.Nodes(); i++ {
			b, err := difftest.NewBattery(f.CapacityWh(i), f.ChargeWh(i), f.CutoffWh(i))
			if err != nil {
				t.Fatal(err)
			}
			cost := 5 * f.TrainCostWh(i) // target above the half-full charge, below capacity
			wake, brown := f.ScanAfford(i, cost, roundSec)
			wantWake := b.TimeToCharge(f.CutoffWh(i)+cost, harvestW-idleW)
			wantBrown := b.TimeToCutoff(idleW - harvestW)
			if wake != wantWake || brown != wantBrown {
				t.Fatalf("%s node %d: ScanAfford (%v, %v), oracle (%v, %v)", tc.name, i, wake, brown, wantWake, wantBrown)
			}
			// Rising reaches the target and never the cutoff; falling the reverse.
			if math.IsInf(wake, 1) == tc.rising || math.IsInf(brown, 1) != tc.rising {
				t.Fatalf("%s node %d: wake %v brown %v: the wrong crossing is reachable", tc.name, i, wake, brown)
			}
		}
	}
}
