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

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 3, 2}) != 1 {
		t.Fatal("Argmax wrong")
	}
	if Argmax([]float64{3, 3}) != 0 {
		t.Fatal("Argmax tie should pick lowest")
	}
	if Argmax(nil) != -1 {
		t.Fatal("Argmax of empty should be -1")
	}
}

func TestLast(t *testing.T) {
	if Last([]float64{1, 2, 3}) != 3 || Last(nil) != 0 {
		t.Fatal("Last wrong")
	}
}

func TestRoundsToTarget(t *testing.T) {
	xs := []float64{10, 20, 30}
	ys := []float64{0.4, 0.6, 0.8}
	if got := RoundsToTarget(xs, ys, 0.6); got != 20 {
		t.Fatalf("RoundsToTarget = %v", got)
	}
	if got := RoundsToTarget(xs, ys, 0.9); got != -1 {
		t.Fatalf("unreachable target = %v", got)
	}
	if got := RoundsToTarget(xs, ys, 0.1); got != 10 {
		t.Fatalf("already-met target = %v", got)
	}
	if got := RoundsToTarget(nil, nil, 0.5); got != -1 {
		t.Fatal("empty series should be -1")
	}
}
