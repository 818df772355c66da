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

func TestConsensusDistanceZeroAtConsensus(t *testing.T) {
	models := []tensor.Vector{{1, 2}, {1, 2}, {1, 2}}
	if d := ConsensusDistance(models); d != 0 {
		t.Fatalf("consensus distance = %v at consensus", d)
	}
}

func TestConsensusDistanceSymmetricPair(t *testing.T) {
	models := []tensor.Vector{{0, 0}, {2, 0}}
	// Mean is (1,0); each model is distance 1 away.
	if d := ConsensusDistance(models); math.Abs(d-1) > 1e-12 {
		t.Fatalf("consensus distance = %v, want 1", d)
	}
}

func TestConsensusDistanceShrinksUnderAveraging(t *testing.T) {
	a := tensor.Vector{0, 0}
	b := tensor.Vector{4, 0}
	before := ConsensusDistance([]tensor.Vector{a, b})
	// One mixing step with weights 0.75/0.25 (row-stochastic).
	a2 := tensor.Vector{0.75*a[0] + 0.25*b[0], 0}
	b2 := tensor.Vector{0.25*a[0] + 0.75*b[0], 0}
	after := ConsensusDistance([]tensor.Vector{a2, b2})
	if after >= before {
		t.Fatalf("mixing did not shrink consensus distance: %v -> %v", before, after)
	}
}

func TestConsensusDistanceEmpty(t *testing.T) {
	if ConsensusDistance(nil) != 0 {
		t.Fatal("empty consensus distance should be 0")
	}
}
