package harvest_test

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/harvest"
)

// A two-node fleet on supercap-scale batteries with no recharge: each node
// affords exactly two training rounds, then leaves the live set only once
// idle draw pushes it below the cutoff.
func ExampleFleet() {
	devices := energy.AssignDevices(2, energy.Devices())
	fleet, err := harvest.NewFleet(devices, energy.CIFAR10Workload(), harvest.Constant{Wh: 0},
		harvest.Options{CapacityRounds: 2, InitialSoC: 1, CommFrac: -1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("round 1 trains: %v\n", fleet.TryTrain(0))
	fmt.Printf("round 2 trains: %v\n", fleet.TryTrain(0))
	fmt.Printf("round 3 trains: %v\n", fleet.TryTrain(0))
	fmt.Printf("live: %v, SoC of node 0: %.1f\n", fleet.Live(), fleet.SoC(0))
	// Output:
	// round 1 trains: true
	// round 2 trains: true
	// round 3 trains: false
	// live: [false true], SoC of node 0: 0.0
}
