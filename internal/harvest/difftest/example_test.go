package difftest_test

import (
	"fmt"

	"repro/internal/harvest/difftest"
)

// A battery with a brown-out cutoff: training is all-or-nothing and never
// crosses the cutoff, while unavoidable idle draw (Drain) can — that is
// how a node browns out.
func ExampleBattery() {
	b, err := difftest.NewBattery(10, 5, 2) // capacity 10 Wh, charge 5, cutoff 2
	if err != nil {
		panic(err)
	}
	fmt.Printf("usable: %v\n", b.Usable())
	fmt.Printf("can train for 4 Wh: %v\n", b.TryConsume(4)) // 5-4 < cutoff: refused
	fmt.Printf("can train for 3 Wh: %v\n", b.TryConsume(3)) // lands exactly on cutoff
	fmt.Printf("usable after training: %v\n", b.Usable())
	b.Harvest(6)
	fmt.Printf("charge after harvesting 6 Wh: %v\n", b.ChargeWh())
	// Output:
	// usable: true
	// can train for 4 Wh: false
	// can train for 3 Wh: true
	// usable after training: false
	// charge after harvesting 6 Wh: 8
}
