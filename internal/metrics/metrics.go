// Package metrics computes the evaluation quantities the paper reports:
// Top-1 accuracy statistics across nodes and model-consensus diagnostics.
package metrics

import (
	"math"

	"repro/internal/tensor"
)

// MeanStd returns the mean and population standard deviation of xs.
// The std is the curve shadow of the paper's Figure 4.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}

// ConsensusDistance returns the average L2 distance of the given model
// vectors from their mean — the "variance between nodes" whose reduction
// through synchronization rounds is SkipTrain's mechanism (Section 3.1).
func ConsensusDistance(models []tensor.Vector) float64 {
	if len(models) == 0 {
		return 0
	}
	mean := tensor.NewVector(len(models[0]))
	tensor.MeanVectorTo(mean, models)
	total := 0.0
	for _, m := range models {
		total += tensor.Dist2(m, mean)
	}
	return total / float64(len(models))
}

// Argmax returns the index of the maximum value (lowest index on ties).
func Argmax(xs []float64) int {
	best, bi := math.Inf(-1), -1
	for i, x := range xs {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// Last returns the final element of xs, or 0 when empty.
func Last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

// RoundsToTarget returns the first x-value at which ys reaches target
// (series sorted by xs ascending), or -1 if it never does. Used for the
// time-to-accuracy readings behind the paper's "boosted convergence speed"
// claim: e.g. the round or Wh at which a curve first crosses 60%.
func RoundsToTarget(xs, ys []float64, target float64) float64 {
	for i := range ys {
		if ys[i] >= target {
			return xs[i]
		}
	}
	return -1
}
