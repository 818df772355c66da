package obs

import "math"

// Sketch is a fixed-bin streaming histogram over the state-of-charge range
// [0, 1]: the quantile structure behind the engine's per-round SoC
// percentiles. Observe is O(1) and allocation-free, Quantile is O(bins),
// and the whole structure is one allocation of a few kilobytes regardless
// of population size — the replacement for materializing a per-node slice
// every round just to know P50/P99.
//
// Quantile error is bounded by one bin width, 1/SoCBins: the reported
// value is the midpoint of the bin containing the exact rank-q element, so
// it is within one bin width of the true quantile (half of one for
// in-range values). Observations outside [0, 1] clamp into the edge bins.
//
// A Sketch is not safe for concurrent use; the engines observe from the
// coordinator goroutine only.
type Sketch struct {
	counts [SoCBins]uint64
	n      uint64
}

// SoCBins is the sketch's resolution: SoC percentiles are exact to better
// than half a percentage point of charge.
const SoCBins = 256

// The sketch's range [socLo, socHi] and bin width.
const (
	socLo, socHi = 0.0, 1.0
	binWidth     = (socHi - socLo) / SoCBins
)

// NewSoCSketch returns an empty state-of-charge sketch.
func NewSoCSketch() *Sketch { return new(Sketch) }

// Observe records one value, clamping out-of-range values into the edge
// bins.
func (s *Sketch) Observe(x float64) {
	idx := int((x - socLo) / binWidth)
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
			return socLo + (float64(i)+0.5)*binWidth
		}
	}
	return socHi - binWidth/2
}

// Reset empties the sketch in place, so a per-round Reset+Observe cycle
// allocates nothing.
func (s *Sketch) Reset() {
	*s = Sketch{}
}
