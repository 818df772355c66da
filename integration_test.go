// Cross-module integration tests: behaviors that only hold when the whole
// stack (data -> partition -> topology -> engine -> energy -> metrics)
// works together.
package repro_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
)

func integrationWorld(t *testing.T, nodes int, seed uint64) (*graph.Graph, *graph.Weights, dataset.Partition, *dataset.Dataset) {
	t.Helper()
	g, err := graph.Regular(nodes, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataset.SyntheticConfig{Classes: 8, Dim: 16, Train: nodes * 30, Test: 320, Noise: 1.5, Seed: seed}
	train, test, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	part, err := dataset.ShardPartition(train, nodes, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g, graph.Metropolis(g), part, test
}

// TestGlobalModelCheckpointDeployment exercises the full deployment path:
// train decentralized, extract the consensus model, load it into a fresh
// network, and verify it scores exactly the accuracy the engine reported.
// (The parameter file format is round-tripped in internal/nn's tests.)
func TestGlobalModelCheckpointDeployment(t *testing.T) {
	g, w, part, test := integrationWorld(t, 12, 31)
	factory := func(node int, r *rng.RNG) *nn.Network {
		return nn.LogisticRegression(16, 8, r)
	}
	res, err := sim.Run(sim.Config{
		Graph: g, Weights: w,
		Algo:         core.SkipTrain(core.Gamma{GammaTrain: 2, GammaSync: 2}),
		Rounds:       16,
		ModelFactory: factory,
		LR:           0.1, BatchSize: 8, LocalSteps: 3,
		Partition: part, Test: test,
		EvalEvery: 0, EvalGlobalModel: true,
		Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalGlobalParams == nil {
		t.Fatal("FinalGlobalParams missing with EvalGlobalModel set")
	}
	deployed := factory(-1, rng.New(2))
	deployed.Use(res.FinalGlobalParams)
	acc := deployed.Accuracy(test.Inputs(), test.Labels())
	if math.Abs(acc-res.FinalGlobalAcc) > 1e-12 {
		t.Fatalf("deployed model accuracy %.6f != engine-reported %.6f", acc, res.FinalGlobalAcc)
	}
	if acc < 1.0/8+0.1 {
		t.Fatalf("deployed model barely above chance: %.3f", acc)
	}
}

// TestFairnessReportFromConstrainedRun checks that the Section 5.1 analysis
// is computable from a real constrained run and that participation is
// measurably unequal when budgets are heterogeneous.
func TestFairnessReportFromConstrainedRun(t *testing.T) {
	g, w, part, test := integrationWorld(t, 12, 32)
	devices := energy.AssignDevices(12, energy.Devices())
	// Heterogeneous budgets: 2..13 rounds.
	taus := make([]int, 12)
	budgets := make([]float64, 12)
	groups := make([]string, 12)
	for i := range taus {
		taus[i] = 2 + i
		budgets[i] = float64(taus[i])
		groups[i] = devices[i].Name
	}
	gamma := core.Gamma{GammaTrain: 1, GammaSync: 1}
	res, err := sim.Run(sim.Config{
		Graph: g, Weights: w,
		Algo:   core.SkipTrainConstrained(gamma, 24, taus),
		Rounds: 24,
		ModelFactory: func(node int, r *rng.RNG) *nn.Network {
			return nn.LogisticRegression(16, 8, r)
		},
		LR: 0.1, BatchSize: 8, LocalSteps: 3,
		Partition: part, Test: test,
		EvalEvery: 0,
		Devices:   devices, Workload: energy.CIFAR10Workload(),
		Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := metrics.NewFairnessReport(res.FinalNodeAccs, res.TrainedRounds, budgets, groups)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ParticipationGini <= 0 {
		t.Fatalf("heterogeneous budgets must yield positive participation Gini, got %v", rep.ParticipationGini)
	}
	if len(rep.AccByGroup) != 4 {
		t.Fatalf("expected 4 device groups, got %d", len(rep.AccByGroup))
	}
	if math.IsNaN(rep.BudgetAccCorr) {
		t.Fatal("budget-accuracy correlation is NaN")
	}
}

// TestSection51ExperimentRenders runs the packaged fairness experiment at
// tiny scale.
func TestSection51ExperimentRenders(t *testing.T) {
	var sb strings.Builder
	o := experiments.Options{
		Nodes: 16, Rounds: 16, Seed: 5, Out: &sb,
		LocalSteps: 2, BatchSize: 8, TrainPerNode: 20, TestSamples: 160, EvalSubsample: 80,
	}
	res, err := experiments.Section51Fairness(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Constrained == nil || res.Baseline == nil {
		t.Fatal("missing reports")
	}
	// D-PSGD trains everyone equally: its participation Gini is exactly 0,
	// and the constrained variant's is strictly larger.
	if res.Baseline.ParticipationGini != 0 {
		t.Fatalf("D-PSGD participation Gini = %v, want 0", res.Baseline.ParticipationGini)
	}
	if res.Constrained.ParticipationGini <= 0 {
		t.Fatal("constrained participation Gini should be positive")
	}
	if !strings.Contains(sb.String(), "participation Gini") {
		t.Fatalf("render incomplete:\n%s", sb.String())
	}
}

// TestExperimentLayerDeterminism runs a full paper experiment twice and
// requires identical results end to end.
func TestExperimentLayerDeterminism(t *testing.T) {
	o := experiments.Options{
		Nodes: 12, Rounds: 12, Seed: 9,
		LocalSteps: 2, BatchSize: 8, TrainPerNode: 20, TestSamples: 160, EvalSubsample: 80,
	}
	a, err := experiments.Figure5(o, []int{4}, []string{"cifar"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.Figure5(o, []int{4}, []string{"cifar"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Arms {
		if a.Arms[i].FinalAcc != b.Arms[i].FinalAcc {
			t.Fatalf("arm %d: %.6f vs %.6f", i, a.Arms[i].FinalAcc, b.Arms[i].FinalAcc)
		}
	}
}
