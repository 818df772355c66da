package obs

import (
	"math"
	"testing"
)

// FuzzSketchQuantiles feeds the SoC sketch arbitrary observations —
// including NaN, infinities, and far-out-of-range values, which clamp into
// the edge bins — and checks the quantile invariants the fleet close-out
// relies on: every reported quantile lies inside the sketch's value range,
// and quantiles are monotone non-decreasing in q.
func FuzzSketchQuantiles(f *testing.F) {
	f.Add(0.5, 0.25, 0.9, uint16(100))
	f.Add(-1.5, 2.5, 0.0, uint16(3))
	f.Add(math.Inf(1), math.Inf(-1), math.NaN(), uint16(7))
	f.Add(0.0, 1.0, 1e-300, uint16(1))
	f.Fuzz(func(t *testing.T, a, b, c float64, n uint16) {
		s := NewSoCSketch()
		s.Observe(a)
		s.Observe(b)
		s.Observe(c)
		// A deterministic pseudo-population derived from the seeds, so the
		// fuzzer also explores rank arithmetic on larger counts.
		x := a
		for i := 0; i < int(n); i++ {
			x = math.Abs(x*0.7+b*0.1) + c*1e-6
			s.Observe(x)
		}
		if want := uint64(3 + int(n)); s.n != want {
			t.Fatalf("Count %d after %d observations", s.n, want)
		}
		qs := []float64{-0.5, 0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1, 1.5}
		prev := math.Inf(-1)
		for _, q := range qs {
			v := s.Quantile(q)
			if math.IsNaN(v) {
				t.Fatalf("Quantile(%g) is NaN on a non-empty sketch", q)
			}
			if v < 0 || v > 1 {
				t.Fatalf("Quantile(%g) = %v outside the sketch range [0, 1]", q, v)
			}
			if v < prev {
				t.Fatalf("Quantile(%g) = %v < previous quantile %v: not monotone", q, v, prev)
			}
			prev = v
		}
	})
}
