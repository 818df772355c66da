package obs

import (
	"fmt"
	"math"
)

// Sketch is a fixed-bin streaming histogram over a closed value range: the
// quantile structure behind the engine's per-round SoC percentiles. Observe
// is O(1) and allocation-free, Quantile is O(bins), and the whole structure
// is a few kilobytes regardless of population size — the replacement for
// materializing a per-node slice every round just to know P50/P99.
//
// Quantile error is bounded by one bin width, (hi-lo)/bins: the reported
// value is the midpoint of the bin containing the exact rank-q element, so
// it is within one bin width of the true quantile (half of one for
// in-range values). Observations outside [lo, hi] clamp into the edge bins.
//
// A Sketch is not safe for concurrent use; the engines observe from the
// coordinator goroutine only.
type Sketch struct {
	lo, hi float64
	width  float64
	counts []uint64
	n      uint64
}

// SoCBins is the default resolution of NewSoCSketch: SoC percentiles are
// exact to better than half a percentage point of charge.
const SoCBins = 256

// NewSketch returns a sketch over [lo, hi] with the given bin count.
func NewSketch(lo, hi float64, bins int) (*Sketch, error) {
	if bins < 1 {
		return nil, fmt.Errorf("obs: sketch needs >= 1 bin, got %d", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("obs: sketch range [%g, %g] is empty", lo, hi)
	}
	return &Sketch{lo: lo, hi: hi, width: (hi - lo) / float64(bins), counts: make([]uint64, bins)}, nil
}

// NewSoCSketch returns the standard state-of-charge sketch: SoCBins bins
// over [0, 1].
func NewSoCSketch() *Sketch {
	s, err := NewSketch(0, 1, SoCBins)
	if err != nil {
		panic(err) // constants above are valid by construction
	}
	return s
}

// Observe records one value, clamping out-of-range values into the edge
// bins.
func (s *Sketch) Observe(x float64) {
	idx := int((x - s.lo) / s.width)
	if idx < 0 {
		idx = 0
	} else if idx >= len(s.counts) {
		idx = len(s.counts) - 1
	}
	s.counts[idx]++
	s.n++
}

// Quantile returns the q-quantile (q clamped to [0, 1]) as the midpoint of
// the bin holding the exact rank-ceil(q*n) observation. An empty sketch
// returns NaN.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			return s.lo + (float64(i)+0.5)*s.width
		}
	}
	return s.hi - s.width/2
}

// Reset empties the sketch, keeping its shape. The backing array is
// reused, so a per-round Reset+Observe cycle allocates nothing.
func (s *Sketch) Reset() {
	clear(s.counts)
	s.n = 0
}
