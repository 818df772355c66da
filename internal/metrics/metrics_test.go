package metrics

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 || std != 2 {
		t.Fatalf("MeanStd = %v, %v", mean, std)
	}
	mean, std = MeanStd(nil)
	if mean != 0 || std != 0 {
		t.Fatal("empty MeanStd should be zero")
	}
}

// consensus is ConsensusDistance of models from their own mean.
func consensus(models []tensor.Vector) float64 {
	if len(models) == 0 {
		return ConsensusDistance(nil, nil)
	}
	mean := tensor.NewVector(len(models[0]))
	for _, m := range models {
		tensor.AXPY(mean, 1/float64(len(models)), m)
	}
	return ConsensusDistance(models, mean)
}

func TestConsensusDistanceZeroAtConsensus(t *testing.T) {
	models := []tensor.Vector{{1, 2}, {1, 2}, {1, 2}}
	if d := consensus(models); d != 0 {
		t.Fatalf("consensus distance = %v at consensus", d)
	}
}

func TestConsensusDistanceSymmetricPair(t *testing.T) {
	models := []tensor.Vector{{0, 0}, {2, 0}}
	// Mean is (1,0); each model is distance 1 away.
	if d := consensus(models); math.Abs(d-1) > 1e-12 {
		t.Fatalf("consensus distance = %v, want 1", d)
	}
}

func TestConsensusDistanceShrinksUnderAveraging(t *testing.T) {
	a := tensor.Vector{0, 0}
	b := tensor.Vector{4, 0}
	before := consensus([]tensor.Vector{a, b})
	// One mixing step with weights 0.75/0.25 (row-stochastic).
	a2 := tensor.Vector{0.75*a[0] + 0.25*b[0], 0}
	b2 := tensor.Vector{0.25*a[0] + 0.75*b[0], 0}
	after := consensus([]tensor.Vector{a2, b2})
	if after >= before {
		t.Fatalf("mixing did not shrink consensus distance: %v -> %v", before, after)
	}
}

func TestConsensusDistanceEmpty(t *testing.T) {
	if consensus(nil) != 0 {
		t.Fatal("empty consensus distance should be 0")
	}
}

// ConsensusDistance reads the mean it is given and allocates nothing: an
// evaluation that tracks consensus costs no allocation.
func TestConsensusDistanceAllocatesNothing(t *testing.T) {
	models := []tensor.Vector{{0, 1, 2}, {2, 1, 0}, {1, 1, 1}}
	mean := tensor.Vector{1, 1, 1}
	if a := testing.AllocsPerRun(10, func() { ConsensusDistance(models, mean) }); a != 0 {
		t.Fatalf("ConsensusDistance allocates %v times a call", a)
	}
	if d, want := ConsensusDistance(models, mean), (2*math.Sqrt2+0)/3; math.Abs(d-want) > 1e-15 {
		t.Fatalf("consensus distance = %v, want %v", d, want)
	}
}
