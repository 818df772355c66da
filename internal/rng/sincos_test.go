package rng

import (
	"math"
	"testing"
)

// TestSincosMatchesMath: on its domain [0, 2π) the Box-Muller kernel is
// math.Sincos to the bit — at every angle 2π·k/2²⁴, at 4 ulps either side
// of each octant boundary kπ/4, and at the largest angle 2π·v can reach.
// It runs on whatever GOARCH the tests run on, so it is the contract
// there; where the compiler fuses multiply-adds it fuses both copies alike.
func TestSincosMatchesMath(t *testing.T) {
	check := func(x float64) {
		s, c := sincos(x)
		ws, wc := math.Sincos(x)
		if math.Float64bits(s) != math.Float64bits(ws) || math.Float64bits(c) != math.Float64bits(wc) {
			t.Fatalf("sincos(%v) (%#x) = (%v, %v), math.Sincos = (%v, %v)", x, math.Float64bits(x), s, c, ws, wc)
		}
	}
	for k := range uint64(1 << 24) {
		check(2 * math.Pi * (float64(k) / (1 << 24)))
	}
	for k := range 9 {
		b := float64(k) * (math.Pi / 4)
		lo, hi := b, b
		for range 4 {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 8)
			if k > 0 {
				check(lo)
			}
			if k < 8 {
				check(hi)
			}
		}
		if k < 8 {
			check(b)
		}
	}
	top := 2 * math.Pi * (1 - 0x1p-53)
	if top >= 2*math.Pi {
		t.Fatalf("2π·(1 − 2⁻⁵³) = %v is not below 2π", top)
	}
	check(top)
}
