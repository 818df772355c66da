package obs

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// exactQuantile is the reference the sketch is compared against: the value
// of rank ceil(q*n) in the sorted sample.
func exactQuantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// The sketch's contract: every quantile is within one bin width of the
// exact sample quantile. Exercised over 1000 random fleets with varied
// sizes and SoC distributions.
func TestSketchQuantileWithinOneBin(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 1000; trial++ {
		n := 1 + r.Intn(400)
		socs := make([]float64, n)
		// Mix distribution shapes: uniform, clustered-low, clustered-high.
		shape := trial % 3
		for i := range socs {
			u := r.Float64()
			switch shape {
			case 1:
				u = u * u // mass near 0, like a starving fleet
			case 2:
				u = 1 - u*u // mass near 1, like a saturated fleet
			}
			socs[i] = u
		}
		sk := NewSoCSketch()
		for _, s := range socs {
			sk.Observe(s)
		}
		sorted := append([]float64(nil), socs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			got := sk.Quantile(q)
			want := exactQuantile(sorted, q)
			if math.Abs(got-want) > binWidth {
				t.Fatalf("trial %d (n=%d shape=%d): q%.2f = %.5f, exact %.5f, off by more than one bin (%.5f)",
					trial, n, shape, q, got, want, binWidth)
			}
		}
	}
}

func TestSketchEmptyIsNaN(t *testing.T) {
	sk := NewSoCSketch()
	if !math.IsNaN(sk.Quantile(0.5)) {
		t.Fatalf("empty sketch quantile = %v, want NaN", sk.Quantile(0.5))
	}
}

func TestSketchClampsOutOfRange(t *testing.T) {
	sk := NewSoCSketch()
	sk.Observe(-0.5)
	sk.Observe(1.5)
	if n := sk.n; n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}
	if q := sk.Quantile(0.01); q > binWidth {
		t.Fatalf("low outlier landed at %v, want first bin", q)
	}
	if q := sk.Quantile(0.99); q < 1-binWidth {
		t.Fatalf("high outlier landed at %v, want last bin", q)
	}
}

func TestSketchResetClears(t *testing.T) {
	sk := NewSoCSketch()
	for i := 0; i < 100; i++ {
		sk.Observe(0.25)
	}
	sk.Reset()
	if sk.n != 0 {
		t.Fatalf("count after reset = %d", sk.n)
	}
	sk.Observe(0.75)
	if q := sk.Quantile(0.5); math.Abs(q-0.75) > binWidth {
		t.Fatalf("post-reset quantile %v remembers pre-reset data", q)
	}
}
