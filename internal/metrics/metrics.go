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
// vectors from their mean, which it reads and does not allocate — the
// "variance between nodes" whose reduction through synchronization rounds
// is SkipTrain's mechanism (Section 3.1).
func ConsensusDistance(models []tensor.Vector, mean tensor.Vector) float64 {
	if len(models) == 0 {
		return 0
	}
	total := 0.0
	for _, m := range models {
		total += tensor.Dist2(m, mean)
	}
	return total / float64(len(models))
}
