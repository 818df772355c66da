package sim

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/harvest/difftest"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// testConfig builds a small but non-trivial experiment: 8 nodes on a
// 4-regular graph, logistic regression on a 6-class synthetic task with a
// 2-shard non-IID partition.
func testConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	return testConfigNodes(t, seed, 8)
}

// testConfigNodes is testConfig at another fleet size, 60 training
// samples per node.
func testConfigNodes(t *testing.T, seed uint64, nodes int) Config {
	t.Helper()
	g, err := graph.Regular(nodes, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataset.SyntheticConfig{Classes: 6, Dim: 8, Train: 60 * nodes, Test: 120, Noise: 0.8, Seed: seed}
	train, test, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	part, err := dataset.ShardPartition(train, nodes, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph:   g,
		Weights: graph.Metropolis(g),
		Algo:    core.DPSGD(),
		Rounds:  12,
		ModelFactory: func(node int, r *rng.RNG) *nn.Network {
			return nn.LogisticRegression(8, 6, r)
		},
		LR:         0.05,
		BatchSize:  16,
		LocalSteps: 3,
		Partition:  part,
		Test:       test,
		EvalEvery:  4,
		Seed:       seed,
	}
}

func TestRunDPSGDImprovesAccuracy(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Rounds = 30
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalMeanAcc < 0.4 {
		t.Fatalf("final accuracy %.3f; model did not learn (chance = 0.167)", res.FinalMeanAcc)
	}
	if len(res.History) != 30 {
		t.Fatalf("history has %d rounds", len(res.History))
	}
	// Every node trained every round under D-PSGD.
	for i, tr := range res.TrainedRounds {
		if tr != 30 {
			t.Fatalf("node %d trained %d/30 rounds under D-PSGD", i, tr)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	r1, err := Run(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.History {
		a, b := r1.History[i], r2.History[i]
		if a.MeanAcc != b.MeanAcc || a.StdAcc != b.StdAcc || a.TrainedCount != b.TrainedCount {
			t.Fatalf("round %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	r1, _ := Run(testConfig(t, 3))
	r2, _ := Run(testConfig(t, 4))
	if r1.FinalMeanAcc == r2.FinalMeanAcc && r1.History[0].MeanAcc == r2.History[0].MeanAcc {
		t.Fatal("different seeds gave identical trajectories")
	}
}

func TestSkipTrainSchedulingAndEnergy(t *testing.T) {
	gamma, _ := core.NewGamma(1, 1)
	cfg := testConfig(t, 6)
	cfg.Rounds = 10
	cfg.Algo = core.SkipTrain(gamma)
	cfg.Devices = energy.AssignDevices(8, energy.Devices())
	cfg.Workload = energy.CIFAR10Workload()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 5 of 10 rounds train -> each node trained 5 rounds.
	for i, tr := range res.TrainedRounds {
		if tr != 5 {
			t.Fatalf("node %d trained %d rounds, want 5", i, tr)
		}
	}
	// Energy must be exactly half of the D-PSGD run.
	cfgD := testConfig(t, 6)
	cfgD.Rounds = 10
	cfgD.Devices = energy.AssignDevices(8, energy.Devices())
	cfgD.Workload = energy.CIFAR10Workload()
	resD, err := Run(cfgD)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TotalTrainWh-resD.TotalTrainWh/2) > 1e-9 {
		t.Fatalf("SkipTrain(1,1) energy %.6f, want half of D-PSGD's %.6f",
			res.TotalTrainWh, resD.TotalTrainWh)
	}
	// Communication happens every round for both.
	if math.Abs(res.TotalCommWh-resD.TotalCommWh) > 1e-9 {
		t.Fatalf("comm energy should match: %.6f vs %.6f", res.TotalCommWh, resD.TotalCommWh)
	}
}

func TestRoundKindsRecorded(t *testing.T) {
	gamma, _ := core.NewGamma(2, 1)
	cfg := testConfig(t, 7)
	cfg.Rounds = 6
	cfg.Algo = core.SkipTrain(gamma)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.RoundKind{core.RoundTrain, core.RoundTrain, core.RoundSync,
		core.RoundTrain, core.RoundTrain, core.RoundSync}
	for i, k := range want {
		if res.History[i].Kind != k {
			t.Fatalf("round %d kind = %v, want %v", i, res.History[i].Kind, k)
		}
		wantCount := 8
		if k == core.RoundSync {
			wantCount = 0
		}
		if res.History[i].TrainedCount != wantCount {
			t.Fatalf("round %d trained %d nodes, want %d", i, res.History[i].TrainedCount, wantCount)
		}
	}
}

func TestGreedyBudgetExhaustion(t *testing.T) {
	cfg := testConfig(t, 8)
	cfg.Rounds = 10
	cfg.Algo = core.Greedy([]int{3, 3, 3, 3, 0, 5, 100, 3})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 3, 3, 3, 0, 5, 10, 3} // clamped at rounds
	for i, w := range want {
		if res.TrainedRounds[i] != w {
			t.Fatalf("node %d trained %d rounds, want %d", i, res.TrainedRounds[i], w)
		}
	}
}

func TestConstrainedRespectsBudgets(t *testing.T) {
	gamma, _ := core.NewGamma(1, 1)
	cfg := testConfig(t, 9)
	cfg.Rounds = 20 // T_train = 10
	budgets := []int{2, 4, 6, 8, 10, 12, 1, 0}
	cfg.Algo = core.SkipTrainConstrained(gamma, cfg.Rounds, budgets)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range budgets {
		if res.TrainedRounds[i] > b {
			t.Fatalf("node %d trained %d rounds, budget %d", i, res.TrainedRounds[i], b)
		}
	}
	// Node with budget >= T_train has p=1: trains all 10 coordinated rounds.
	if res.TrainedRounds[4] != 10 || res.TrainedRounds[5] != 10 {
		t.Fatalf("unconstrained-equivalent nodes trained %d/%d, want 10/10",
			res.TrainedRounds[4], res.TrainedRounds[5])
	}
	// Node with zero budget never trains.
	if res.TrainedRounds[7] != 0 {
		t.Fatalf("zero-budget node trained %d rounds", res.TrainedRounds[7])
	}
}

func TestSyncOnlyPreservesMeanAndContracts(t *testing.T) {
	// With zero budgets nobody ever trains, so every round is effectively a
	// synchronization round: the mean model must stay constant (W is doubly
	// stochastic) and the consensus distance must shrink monotonically.
	cfg := testConfig(t, 10)
	cfg.Rounds = 15
	cfg.Algo = core.Greedy(make([]int, 8))
	cfg.EvalEvery = 1
	cfg.EvalGlobalModel = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evals := res.Evaluations()
	if len(evals) != 15 {
		t.Fatalf("want 15 evaluations, got %d", len(evals))
	}
	for i := 1; i < len(evals); i++ {
		if evals[i].Consensus > evals[i-1].Consensus+1e-12 {
			t.Fatalf("consensus distance grew at round %d: %v -> %v",
				i, evals[i-1].Consensus, evals[i].Consensus)
		}
	}
	// By the end all models agree: node-accuracy spread collapses.
	last := evals[len(evals)-1]
	if last.Consensus > evals[0].Consensus*0.5 {
		t.Fatalf("consensus distance barely shrank: %v -> %v", evals[0].Consensus, last.Consensus)
	}
	// Global model accuracy equals mean node accuracy as models converge.
	if math.Abs(last.GlobalAcc-last.MeanAcc) > 0.08 {
		t.Fatalf("global %.3f vs mean %.3f at consensus", last.GlobalAcc, last.MeanAcc)
	}
}

func TestAllReduceCollapsesVariance(t *testing.T) {
	cfg := testConfig(t, 11)
	cfg.Rounds = 8
	cfg.Algo = core.AllReduce()
	cfg.EvalEvery = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After global averaging all nodes hold the same model: std accuracy 0
	// (up to float rounding in the mean).
	for _, m := range res.Evaluations() {
		if m.StdAcc > 1e-9 {
			t.Fatalf("round %d: all-reduce left accuracy std %v", m.Round, m.StdAcc)
		}
	}
}

func TestAllReduceBeatsDPSGDUnderNonIID(t *testing.T) {
	// Figure 1's claim, at test scale: evaluating the all-reduced model
	// gives higher accuracy than the average node accuracy of D-PSGD.
	base := testConfig(t, 12)
	base.Rounds = 25
	dpsgd, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	ar := testConfig(t, 12)
	ar.Rounds = 25
	ar.Algo = core.AllReduce()
	allreduce, err := Run(ar)
	if err != nil {
		t.Fatal(err)
	}
	if allreduce.FinalMeanAcc < dpsgd.FinalMeanAcc-0.02 {
		t.Fatalf("all-reduce %.3f should not lag D-PSGD %.3f under non-IID",
			allreduce.FinalMeanAcc, dpsgd.FinalMeanAcc)
	}
}

func TestEvalEverySemantics(t *testing.T) {
	cfg := testConfig(t, 13)
	cfg.Rounds = 10
	cfg.EvalEvery = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []int
	for _, m := range res.Evaluations() {
		rounds = append(rounds, m.Round)
	}
	want := []int{2, 5, 8, 9} // after rounds 3,6,9 (0-based 2,5,8) and final
	if len(rounds) != len(want) {
		t.Fatalf("evaluated rounds %v, want %v", rounds, want)
	}
	for i := range want {
		if rounds[i] != want[i] {
			t.Fatalf("evaluated rounds %v, want %v", rounds, want)
		}
	}
	// EvalEvery=0: final only.
	cfg2 := testConfig(t, 13)
	cfg2.EvalEvery = 0
	res2, _ := Run(cfg2)
	if len(res2.Evaluations()) != 1 || res2.Evaluations()[0].Round != cfg2.Rounds-1 {
		t.Fatal("EvalEvery=0 should evaluate only the final round")
	}
	// A schedule with sync rounds also evaluates its last full period, the
	// readout's window, whatever EvalEvery is.
	cfg3 := testConfig(t, 13)
	cfg3.Rounds, cfg3.EvalEvery, cfg3.Algo = 10, 0, core.SkipTrain(core.Gamma{GammaTrain: 1, GammaSync: 3})
	res3, _ := Run(cfg3)
	rounds = rounds[:0]
	for _, m := range res3.Evaluations() {
		rounds = append(rounds, m.Round)
	}
	if !slices.Equal(rounds, []int{6, 7, 8, 9}) {
		t.Fatalf("Γ = (1,3), EvalEvery 0: evaluated rounds %v, want the last period 6-9", rounds)
	}
}

// TestEvaluationsLeaveRunUnchanged: with a subsample below the test split,
// a run evaluated every round reports the same final scores as one
// evaluated only at the end — every evaluation scores one sample drawn at
// set-up, so how often a run is observed does not change what it reports.
func TestEvaluationsLeaveRunUnchanged(t *testing.T) {
	run := func(every int) *Result {
		cfg := testConfig(t, 19)
		cfg.EvalEvery, cfg.EvalSubsample, cfg.EvalGlobalModel = every, 40, true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	once, every := run(0), run(1)
	if len(once.Evaluations()) != 1 || len(every.Evaluations()) != once.History[len(once.History)-1].Round+1 {
		t.Fatalf("%d and %d evaluations", len(once.Evaluations()), len(every.Evaluations()))
	}
	if once.FinalMeanAcc != every.FinalMeanAcc || once.FinalGlobalAcc != every.FinalGlobalAcc || !slices.Equal(once.FinalNodeAccs, every.FinalNodeAccs) {
		t.Fatalf("evaluated once: mean %v, averaged model %v, nodes %v; every round: %v, %v, %v",
			once.FinalMeanAcc, once.FinalGlobalAcc, once.FinalNodeAccs, every.FinalMeanAcc, every.FinalGlobalAcc, every.FinalNodeAccs)
	}
}

func TestEvalSubsample(t *testing.T) {
	cfg := testConfig(t, 14)
	cfg.EvalSubsample = 10
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	// The checks both engines share are internal/learner's table; these
	// are the round engine's own.
	mutations := map[string]func(*Config){
		"nil weights": func(c *Config) { c.Weights = nil },
		"zero rounds": func(c *Config) { c.Rounds = 0 },
	}
	for name, mutate := range mutations {
		cfg := testConfig(t, 15)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s: want validation error", name)
		}
	}
}

// The learning rate's range is written as the condition a valid value
// satisfies, so NaN and +Inf fail it: both used to pass "LR <= 0" and run to
// a 10% final accuracy.
func TestNonFiniteLearningRateRejected(t *testing.T) {
	for _, lr := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.05} {
		cfg := testConfig(t, 15)
		cfg.LR = lr
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "learning rate") {
			t.Fatalf("LR %v: Run returned %v, want a learning-rate error", lr, err)
		}
	}
}

// Weights built for another graph are rejected by validate, with the node
// whose row does not fit, not by an index panic inside a worker goroutine.
func TestWeightsOfAnotherGraphRejected(t *testing.T) {
	cfg := testConfig(t, 15)
	smaller, err := graph.Regular(6, 4, 15)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := graph.Ring(cfg.Graph.N)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"fewer nodes", smaller, "weights for 6 nodes, graph has 8"},
		{"same nodes, other degrees", ring, "node 0 2 neighbors, the graph 4"},
	} {
		cfg.Weights = graph.Metropolis(tc.g)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCumulativeEnergyMonotone(t *testing.T) {
	cfg := testConfig(t, 16)
	cfg.Devices = energy.AssignDevices(8, energy.Devices())
	cfg.Workload = energy.CIFAR10Workload()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i].CumTrainWh < res.History[i-1].CumTrainWh {
			t.Fatal("cumulative training energy decreased")
		}
		if res.History[i].CumCommWh < res.History[i-1].CumCommWh {
			t.Fatal("cumulative comm energy decreased")
		}
	}
	if res.TotalCommWh <= 0 || res.TotalTrainWh <= 0 {
		t.Fatal("energy totals missing")
	}
	// Training dominates communication by design (paper: >200x per round,
	// here 12 rounds so ratio is 216).
	if res.TotalTrainWh/res.TotalCommWh < 100 {
		t.Fatalf("train/comm ratio %.1f too small", res.TotalTrainWh/res.TotalCommWh)
	}
}

// TestBudgetPolicyServesManyRuns drives one Greedy and one
// SkipTrain-constrained value through two runs each, at GOMAXPROCS 1 and 8.
// The budget a node has spent is the engine's count of its trained rounds,
// so the policies hold no run state and the two runs are the same run.
func TestBudgetPolicyServesManyRuns(t *testing.T) {
	gamma, _ := core.NewGamma(1, 1)
	tau := []int{2, 4, 6, 8, 10, 12, 1, 0}
	for _, algo := range []core.Algorithm{core.Greedy(tau), core.SkipTrainConstrained(gamma, 20, tau)} {
		run := func(procs int) *Result {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			cfg := testConfig(t, 58)
			cfg.Rounds = 20
			cfg.Devices = energy.AssignDevices(8, energy.Devices())
			cfg.Workload = energy.CIFAR10Workload()
			cfg.Algo = algo
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", algo.Label, err)
			}
			return res
		}
		serial, wide := run(1), run(8)
		wide.Manifest.GOMAXPROCS = serial.Manifest.GOMAXPROCS // recorded, not hashed
		if !reflect.DeepEqual(serial, wide) {
			t.Fatalf("%s: the second run on one policy value differs from the first", algo.Label)
		}
		trained := 0
		for i, tr := range serial.TrainedRounds {
			if tr > tau[i] {
				t.Fatalf("%s: node %d trained %d rounds with budget %d", algo.Label, i, tr, tau[i])
			}
			trained += tr
		}
		if trained == 0 {
			t.Fatalf("%s: no node trained", algo.Label)
		}
	}
}

func TestMeanModelPreservationProperty(t *testing.T) {
	// Engine-level invariant: on sync-only rounds the average of all model
	// vectors is invariant (doubly stochastic W). Verified through the
	// consensus machinery: run 1 sync round, global model accuracy must be
	// identical to a 5-sync-round run's (same mean model).
	run := func(rounds int) float64 {
		cfg := testConfig(t, 18)
		cfg.Rounds = rounds
		cfg.Algo = core.Greedy(make([]int, 8))
		cfg.EvalGlobalModel = true
		cfg.EvalEvery = 0
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalGlobalAcc
	}
	if a, b := run(1), run(5); a != b {
		t.Fatalf("mean model changed across sync rounds: %.6f vs %.6f", a, b)
	}
}

// TestSyncRoundLeavesFleetMeanUnchanged is why the readout averages node
// accuracies and not the averaged model's: on a static graph, one sync
// round moves the fleet mean by no more than its rounding. Each coordinate
// c is held to γ(n+2d+4)·(Σ|x_i[c]| + Σ|x'_i[c]|)/n, γ(m) = m·u/(1−m·u)
// and u = 2⁻⁵³, summed from the mix kernel's dot product of d+1 operands
// (γ(d+1)), the Metropolis weights' column sums (1 − Σ of d weights, within
// γ(d+1) of 1) and the two fleet means of n operands each (γ(n+1) apiece).
// A training round moves the mean past that bound.
func TestSyncRoundLeavesFleetMeanUnchanged(t *testing.T) {
	run := func(rounds int) (models []tensor.Vector, mean tensor.Vector) {
		cfg := testConfig(t, 20)
		cfg.Rounds, cfg.Algo, cfg.EvalGlobalModel = rounds, core.SkipTrain(core.Gamma{GammaTrain: 2, GammaSync: 2}), true
		cfg.seeModels = func(ms []tensor.Vector) { models = ms }
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return models, res.FinalGlobalParams
	}
	// worst is the largest move of a coordinate of the fleet mean between
	// rounds-1 and rounds rounds, in units of its rounding bound.
	worst := func(rounds int) (w float64) {
		x, m := run(rounds - 1)
		x2, m2 := run(rounds)
		nodes, deg := float64(len(x)), 4.0 // testConfig's graph is 4-regular
		const u = 0x1p-53
		k := nodes + 2*deg + 4
		gamma := k * u / (1 - k*u)
		for c := range m {
			abs := 0.0
			for i := range x {
				abs += math.Abs(x[i][c]) + math.Abs(x2[i][c])
			}
			w = max(w, math.Abs(m2[c]-m[c])/(gamma*abs/nodes))
		}
		return w
	}
	for _, rounds := range []int{3, 4} { // rounds 2 and 3 are Γ = (2,2)'s sync rounds
		w := worst(rounds)
		t.Logf("sync round %d: the fleet mean moved at most %.3g of its rounding bound", rounds-1, w)
		if w > 1 {
			t.Errorf("sync round %d moved the fleet mean %.3g times its rounding bound", rounds-1, w)
		}
	}
	if w := worst(2); w <= 1 { // round 1 trains
		t.Errorf("a training round moved the fleet mean only %.3g of the rounding bound", w)
	} else {
		t.Logf("training round 1: the fleet mean moved %.3g times the rounding bound", w)
	}
}

func TestHalfStepVectorIsolation(t *testing.T) {
	// Reading the shared models must not disturb training (nothing writes a
	// published model vector before the round's barrier, and evaluation only
	// reads). Detected indirectly: two identical runs where one evaluates
	// every round (extra reads) must match exactly.
	cfg1 := testConfig(t, 19)
	cfg1.EvalEvery = 1
	r1, err := Run(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig(t, 19)
	cfg2.EvalEvery = 0
	r2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.FinalMeanAcc != r2.FinalMeanAcc {
		t.Fatalf("evaluation cadence changed training: %.6f vs %.6f",
			r1.FinalMeanAcc, r2.FinalMeanAcc)
	}
}

func TestFinalNodeAccsExposed(t *testing.T) {
	cfg := testConfig(t, 20)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalNodeAccs) != 8 {
		t.Fatalf("FinalNodeAccs has %d entries", len(res.FinalNodeAccs))
	}
	mean := 0.0
	for _, a := range res.FinalNodeAccs {
		if a < 0 || a > 1 {
			t.Fatalf("accuracy out of range: %v", a)
		}
		mean += a
	}
	mean /= 8
	if math.Abs(mean-res.FinalMeanAcc) > 1e-12 {
		t.Fatalf("per-node accuracies mean %v != reported %v", mean, res.FinalMeanAcc)
	}
}

// harvestScenario is the shared scenario cell behind the sim harvest
// tests: the difftest table generator builds the trace, fleet, and policy,
// so these tests exercise the same construction path the engine
// differential suite pins.
func harvestScenario(seed uint64, nodes int) difftest.Scenario {
	return difftest.Scenario{
		Name:    "sim-harvest",
		Nodes:   nodes,
		Seed:    seed,
		Trace:   difftest.TraceDiurnal,
		Policy:  difftest.PolicyProportional,
		Options: harvest.Options{CapacityRounds: 8, InitialSoC: 0.5},
	}
}

// harvestConfig attaches a diurnal harvest fleet — built by the difftest
// scenario generator — and a charge-proportional policy to the standard
// test config.
func harvestConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	cfg := testConfig(t, seed)
	s := harvestScenario(seed, cfg.Graph.N)
	inst, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Algo = core.Algorithm{Label: "harvest", Schedule: s.Schedule(), Policy: inst.Policy}
	cfg.Devices = s.Devices()
	cfg.Workload = s.Workload()
	cfg.Harvest = inst.Fleet
	return cfg
}

// recordSoCs makes cfg keep every node's state of charge after each round.
// Its Liveness hook records fleet.SoCs() at the start of round t, which is
// the charge after round t-1, and returns fleet.Live(), the engine's own
// default live set, so the run's bits do not change. The returned function
// reads the per-round snapshots off a finished run, the last round's from
// Result.FinalSoC.
func recordSoCs(cfg *Config) func(*Result) [][]float64 {
	var socs [][]float64
	fleet := cfg.Harvest
	cfg.Liveness = func(t int) []bool {
		if t > 0 {
			socs = append(socs, fleet.SoCs())
		}
		return fleet.Live()
	}
	return func(res *Result) [][]float64 { return append(socs, res.FinalSoC) }
}

// rewoundHarvestConfig is harvestConfig on a fleet with a past: four rounds
// of threshold training (TryTrain, then EndRound), then Reset — the
// grid-search reuse path. Reset promises such a fleet replays a fresh one
// bit for bit.
func rewoundHarvestConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	cfg := harvestConfig(t, seed)
	f := cfg.Harvest
	for r := 0; r < 4; r++ {
		for i := 0; i < f.Nodes(); i++ {
			if f.SoC(i) > 0.3 {
				f.TryTrain(i)
			}
		}
		f.EndRound(r)
	}
	if err := cfg.Harvest.Reset(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestHarvestFleetWiring(t *testing.T) {
	cfg := harvestConfig(t, 6)
	cfg.Rounds = 24
	socs := recordSoCs(&cfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalHarvestWh <= 0 {
		t.Fatal("diurnal fleet harvested nothing")
	}
	if len(res.FinalSoC) != cfg.Graph.N {
		t.Fatalf("FinalSoC has %d nodes", len(res.FinalSoC))
	}
	trainedTotal := 0
	for _, tr := range res.TrainedRounds {
		trainedTotal += tr
	}
	if trainedTotal == 0 {
		t.Fatal("no node ever trained")
	}
	perRound := socs(res)
	if len(perRound) != len(res.History) {
		t.Fatalf("%d SoC snapshots for %d rounds", len(perRound), len(res.History))
	}
	for r, m := range res.History {
		if m.MeanSoC < 0 || m.MeanSoC > 1 || m.MinSoC > m.MeanSoC {
			t.Fatalf("round %d SoC stats inconsistent: %+v", m.Round, m)
		}
		if len(perRound[r]) != cfg.Graph.N {
			t.Fatalf("round %d SoC snapshot has %d nodes", m.Round, len(perRound[r]))
		}
	}
	// Cumulative harvest is monotone.
	for i := 1; i < len(res.History); i++ {
		if res.History[i].CumHarvestWh < res.History[i-1].CumHarvestWh {
			t.Fatalf("cumulative harvest decreased at round %d", i)
		}
	}
}

// TestHarvestSimEngineParity runs the full simulation — training, gossip,
// and the harvest loop — once on a fresh fleet and once on a fleet that
// first ran four threshold rounds and was Reset, and requires bit-identical
// results: Reset leaves nothing of the first rounds for the run to see.
// (The arithmetic itself is pinned against the reference oracle by
// internal/harvest/difftest.)
func TestHarvestSimEngineParity(t *testing.T) {
	run := func(cfg Config) *Result {
		cfg.Rounds = 24
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fresh := run(harvestConfig(t, 6))
	rewound := run(rewoundHarvestConfig(t, 6))
	if fresh.FinalMeanAcc != rewound.FinalMeanAcc ||
		fresh.TotalHarvestWh != rewound.TotalHarvestWh ||
		fresh.TotalWastedWh != rewound.TotalWastedWh {
		t.Fatalf("runs diverge: fresh (acc %v, harvest %v, wasted %v), rewound (acc %v, harvest %v, wasted %v)",
			fresh.FinalMeanAcc, fresh.TotalHarvestWh, fresh.TotalWastedWh,
			rewound.FinalMeanAcc, rewound.TotalHarvestWh, rewound.TotalWastedWh)
	}
	for i := range fresh.FinalSoC {
		if fresh.FinalSoC[i] != rewound.FinalSoC[i] {
			t.Fatalf("node %d final SoC: fresh %v, rewound %v", i, fresh.FinalSoC[i], rewound.FinalSoC[i])
		}
	}
	for r := range fresh.TrainedRounds {
		if fresh.TrainedRounds[r] != rewound.TrainedRounds[r] {
			t.Fatalf("node %d trained-rounds: fresh %d, rewound %d", r, fresh.TrainedRounds[r], rewound.TrainedRounds[r])
		}
	}
}

// TestHarvestDeterministicAcrossGOMAXPROCS pins the tentpole guarantee:
// same seed and config produce bit-identical SoC trajectories no matter how
// many workers the engine fans phases out to.
func TestHarvestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) (*Result, [][]float64) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cfg := harvestConfig(t, 7)
		cfg.Rounds = 20
		socs := recordSoCs(&cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, socs(res)
	}
	serial, serialSoCs := run(1)
	wide, wideSoCs := run(8)
	for r := range serial.History {
		a, b := serial.History[r], wide.History[r]
		if a.MeanSoC != b.MeanSoC || a.MinSoC != b.MinSoC || a.TrainedCount != b.TrainedCount {
			t.Fatalf("round %d differs across GOMAXPROCS: %+v vs %+v", r, a, b)
		}
		for i := range serialSoCs[r] {
			if serialSoCs[r][i] != wideSoCs[r][i] {
				t.Fatalf("round %d node %d SoC %v vs %v", r, i, serialSoCs[r][i], wideSoCs[r][i])
			}
		}
	}
	for i := range serial.FinalSoC {
		if serial.FinalSoC[i] != wide.FinalSoC[i] {
			t.Fatalf("final SoC differs at node %d", i)
		}
	}
}

func TestHarvestConfigValidation(t *testing.T) {
	cfg := harvestConfig(t, 8)
	small := energy.AssignDevices(cfg.Graph.N-1, energy.Devices())
	fleet, err := harvest.NewFleet(small, energy.CIFAR10Workload(), harvest.Constant{Wh: 0}, harvest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Harvest = fleet
	if _, err := Run(cfg); err == nil {
		t.Fatal("fleet/graph size mismatch should error")
	}
}

// TestHarvestFleetReuseRejected pins the fleet-reuse guard: a second Run on
// the same fleet must fail loudly instead of silently inheriting drained
// batteries and ledger state, and Fleet.Reset reopens the fleet for a run
// that reproduces the first bit-for-bit.
func TestHarvestFleetReuseRejected(t *testing.T) {
	cfg := harvestConfig(t, 11)
	cfg.Rounds = 12
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted a fleet consumed by a prior run")
	} else if !strings.Contains(err.Error(), "consumed") {
		t.Fatalf("unhelpful reuse error: %v", err)
	}
	if err := cfg.Harvest.Reset(); err != nil {
		t.Fatal(err)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.FinalMeanAcc != first.FinalMeanAcc || again.TotalHarvestWh != first.TotalHarvestWh {
		t.Fatalf("post-Reset run differs: acc %v vs %v, harvest %v vs %v",
			again.FinalMeanAcc, first.FinalMeanAcc, again.TotalHarvestWh, first.TotalHarvestWh)
	}
	for i := range first.FinalSoC {
		if first.FinalSoC[i] != again.FinalSoC[i] {
			t.Fatalf("post-Reset SoC differs at node %d: %v vs %v", i, first.FinalSoC[i], again.FinalSoC[i])
		}
	}
}

// A fresh fleet over a stateful trace another fleet already drove must
// not inherit the trace's chain state: the fleet rewinds the trace, so two
// runs, each on its own fleet over one Markov object, are the same run.
func TestHarvestTraceReuseReplays(t *testing.T) {
	cfg := testConfig(t, 9)
	cfg.Devices, cfg.Workload = energy.AssignDevices(cfg.Graph.N, energy.Devices()), energy.CIFAR10Workload()
	meanTrainWh := energy.NetworkRoundWh(cfg.Graph.N, energy.Devices(), cfg.Workload) / float64(cfg.Graph.N)
	trace, err := harvest.NewMarkovOnOff(cfg.Graph.N, 1.2*meanTrainWh, 0.3, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		cfg.Harvest, err = harvest.NewFleet(cfg.Devices, cfg.Workload, trace, harvest.Options{CapacityRounds: 6, InitialSoC: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if first, again := run(), run(); first.TotalHarvestWh != again.TotalHarvestWh || first.FinalMeanAcc != again.FinalMeanAcc {
		t.Fatalf("second fleet on the same trace differs: harvest %v vs %v Wh, accuracy %v vs %v",
			first.TotalHarvestWh, again.TotalHarvestWh, first.FinalMeanAcc, again.FinalMeanAcc)
	}
}

// TestHarvestWastedPlumbing checks the wasted-harvest ledger surfaces in
// the round metrics and result totals: an oversized trickle onto nearly
// full supercaps must waste energy, monotonically, and match the fleet's
// own ledger.
func TestHarvestWastedPlumbing(t *testing.T) {
	cfg := harvestConfig(t, 12)
	cfg.Rounds = 10
	devices := energy.AssignDevices(cfg.Graph.N, energy.Devices())
	w := energy.CIFAR10Workload()
	meanTrainWh := energy.NetworkRoundWh(cfg.Graph.N, energy.Devices(), w) / float64(cfg.Graph.N)
	fleet, err := harvest.NewFleet(devices, w, harvest.Constant{Wh: 3 * meanTrainWh},
		harvest.Options{CapacityRounds: 2, InitialSoC: 1})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := harvest.NewSoCThreshold(0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Harvest = fleet
	cfg.Algo = core.Algorithm{Label: "waste", Schedule: core.AllTrain{}, Policy: policy}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWastedWh <= 0 {
		t.Fatal("oversized trickle onto full batteries wasted nothing")
	}
	if res.TotalWastedWh != fleet.WastedWh() {
		t.Fatalf("result wasted %v, fleet ledger %v", res.TotalWastedWh, fleet.WastedWh())
	}
	last := 0.0
	for _, m := range res.History {
		if m.CumWastedWh < last {
			t.Fatalf("cumulative waste decreased at round %d", m.Round)
		}
		last = m.CumWastedWh
	}
	if last != res.TotalWastedWh {
		t.Fatalf("final CumWastedWh %v != TotalWastedWh %v", last, res.TotalWastedWh)
	}
}

// TestHarvestBatteriesBindParticipation: with zero recharge the fleet is a
// strict budget — nodes can never train more rounds than their initial
// charge affords, reproducing the paper's static-τ setting as a special
// case of the harvesting model.
func TestHarvestBatteriesBindParticipation(t *testing.T) {
	cfg := harvestConfig(t, 9)
	devices := energy.AssignDevices(cfg.Graph.N, energy.Devices())
	const initialRounds = 4
	fleet, err := harvest.NewFleet(devices, energy.CIFAR10Workload(), harvest.Constant{Wh: 0},
		harvest.Options{CapacityRounds: initialRounds, InitialSoC: 1, CommFrac: -1})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := harvest.NewSoCThreshold(0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Algo = core.Algorithm{Label: "dark", Schedule: core.AllTrain{}, Policy: policy}
	cfg.Harvest = fleet
	cfg.Rounds = 16
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.TrainedRounds {
		if tr != initialRounds {
			t.Fatalf("node %d trained %d rounds on a %d-round battery with no recharge", i, tr, initialRounds)
		}
	}
	if res.TotalHarvestWh != 0 {
		t.Fatalf("dark scenario harvested %v Wh", res.TotalHarvestWh)
	}
}

// brownoutConfig builds a harvest run where brown-outs actually happen: a
// supercap-scale fleet with a real cutoff and idle draw, so night-side
// nodes deplete below the cutoff and leave the live set.
func brownoutConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	return brownoutConfigNodes(t, seed, 8)
}

// brownoutConfigNodes is brownoutConfig at another fleet size.
func brownoutConfigNodes(t *testing.T, seed uint64, nodes int) Config {
	t.Helper()
	cfg := testConfigNodes(t, seed, nodes)
	devices := energy.AssignDevices(cfg.Graph.N, energy.Devices())
	w := energy.CIFAR10Workload()
	meanTrainWh := energy.NetworkRoundWh(cfg.Graph.N, energy.Devices(), w) / float64(cfg.Graph.N)
	trace, err := harvest.NewDiurnal(1.0*meanTrainWh, 8, harvest.LongitudePhase(cfg.Graph.N))
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := harvest.NewFleet(devices, w, trace, harvest.Options{
		CapacityRounds: 6,
		InitialSoC:     0.6,
		CutoffSoC:      0.3,
		IdleWh:         0.25 * meanTrainWh,
	})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := harvest.NewSoCThreshold(0.35)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Algo = core.Algorithm{Label: "brownout", Schedule: core.AllTrain{}, Policy: policy}
	cfg.Devices = devices
	cfg.Workload = w
	cfg.Harvest = fleet
	cfg.DropDeadNodes = true
	cfg.Rounds = 24
	return cfg
}

func TestDropDeadNodesValidation(t *testing.T) {
	cfg := testConfig(t, 30)
	cfg.DropDeadNodes = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("DropDeadNodes without a fleet or hook should error")
	}
	cfg2 := brownoutConfig(t, 30)
	cfg2.Algo.Aggregation = core.AggGlobal
	if _, err := Run(cfg2); err == nil {
		t.Fatal("DropDeadNodes with AggGlobal should error")
	}
	cfg3 := testConfig(t, 30)
	cfg3.DropDeadNodes = true
	cfg3.Liveness = func(int) []bool { return []bool{true} } // wrong length
	if _, err := Run(cfg3); err == nil {
		t.Fatal("wrong-length live set should error")
	}
}

func TestDropDeadNodesFreezesDeadNode(t *testing.T) {
	// A Liveness hook (no fleet needed) that keeps node 0 browned out for
	// the whole run: it must never train, its neighbors' broadcasts to it
	// must be dropped, and the live metrics must see 7 of 8 nodes.
	cfg := testConfig(t, 31)
	cfg.DropDeadNodes = true
	dead := make([]bool, 8)
	for i := range dead {
		dead[i] = i != 0
	}
	cfg.Liveness = func(int) []bool { return dead }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainedRounds[0] != 0 {
		t.Fatalf("dead node trained %d rounds", res.TrainedRounds[0])
	}
	for i := 1; i < 8; i++ {
		if res.TrainedRounds[i] != cfg.Rounds {
			t.Fatalf("live node %d trained %d/%d rounds", i, res.TrainedRounds[i], cfg.Rounds)
		}
	}
	// Node 0 has degree 4: its 4 live neighbors each lose one send per
	// round (node 0 itself never transmits).
	deg := cfg.Graph.Degree(0)
	if res.TotalDroppedSends != deg*cfg.Rounds {
		t.Fatalf("dropped %d sends, want %d", res.TotalDroppedSends, deg*cfg.Rounds)
	}
	for _, m := range res.History {
		if m.LiveCount != 7 {
			t.Fatalf("round %d LiveCount = %d, want 7", m.Round, m.LiveCount)
		}
		if m.DroppedSends != deg {
			t.Fatalf("round %d dropped %d, want %d", m.Round, m.DroppedSends, deg)
		}
		if m.LiveComponents < 1 {
			t.Fatalf("round %d has %d live components", m.Round, m.LiveComponents)
		}
	}
}

func TestDropDeadPreservesMeanModel(t *testing.T) {
	// The renormalized W is doubly stochastic with identity rows for dead
	// nodes, so on sync-only rounds the global mean model is invariant even
	// while the live set churns: a 1-round and a 6-round run must evaluate
	// the identical mean model.
	run := func(rounds int) float64 {
		cfg := testConfig(t, 32)
		cfg.Rounds = rounds
		cfg.Algo = core.Greedy(make([]int, 8))
		cfg.EvalGlobalModel = true
		cfg.EvalEvery = 0
		cfg.DropDeadNodes = true
		cfg.Liveness = func(t int) []bool {
			live := make([]bool, 8)
			for i := range live {
				live[i] = (i+t)%3 != 0 // churning dead set
			}
			return live
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalGlobalAcc
	}
	if a, b := run(1), run(6); a != b {
		t.Fatalf("mean model drifted under dropout: %.6f vs %.6f", a, b)
	}
}

// TestDroppedSendsAreLiveToDeadEdges: on a churning 16-node fleet each
// round's DroppedSends is the number of directed edges from a live node to
// a dead one.
func TestDroppedSendsAreLiveToDeadEdges(t *testing.T) {
	const n = 16
	liveness := func(round int) []bool {
		if round%4 == 3 {
			return nil // an all-live round between churning ones
		}
		live := make([]bool, n)
		for i := range live {
			live[i] = (5*i+3*round)%7 > 1
		}
		return live
	}
	cfg := testConfigNodes(t, 46, n)
	cfg.DropDeadNodes, cfg.Liveness = true, liveness
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range res.History {
		live, want := liveness(m.Round), 0
		for i, adj := range cfg.Graph.Adj {
			for _, j := range adj {
				if live != nil && live[i] && !live[j] {
					want++
				}
			}
		}
		if m.DroppedSends != want {
			t.Errorf("round %d: %d dropped sends, %d directed live-to-dead edges", m.Round, m.DroppedSends, want)
		}
		total += want
	}
	if total == 0 || res.TotalDroppedSends != total {
		t.Fatalf("TotalDroppedSends %d, want %d > 0", res.TotalDroppedSends, total)
	}
}

func TestBrownoutDropoutEndToEnd(t *testing.T) {
	res, err := Run(brownoutConfig(t, 33))
	if err != nil {
		t.Fatal(err)
	}
	var sawDead, sawDrop bool
	for _, m := range res.History {
		if m.LiveCount < 8 {
			sawDead = true
		}
		if m.DroppedSends > 0 {
			sawDrop = true
		}
		if m.LiveCount > 0 && m.MeanLiveDegree > 4 {
			t.Fatalf("round %d mean live degree %v exceeds topology degree", m.Round, m.MeanLiveDegree)
		}
	}
	if !sawDead {
		t.Fatal("no round ever browned a node out; scenario too easy")
	}
	if !sawDrop {
		t.Fatal("brown-outs occurred but no sends were dropped")
	}
	if res.TotalDroppedSends == 0 {
		t.Fatal("TotalDroppedSends not accumulated")
	}
}

// TestBrownoutRouteVsDropDiffer pins that the mode switch matters: routing
// through dead nodes and dropping their edges must produce different
// trajectories once brown-outs occur (the route-through baseline keeps
// using dead relays).
func TestBrownoutRouteVsDropDiffer(t *testing.T) {
	drop, err := Run(brownoutConfig(t, 34))
	if err != nil {
		t.Fatal(err)
	}
	routeCfg := brownoutConfig(t, 34)
	routeCfg.DropDeadNodes = false
	route, err := Run(routeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if route.TotalDroppedSends != 0 {
		t.Fatalf("route-through mode dropped %d sends", route.TotalDroppedSends)
	}
	// Live metrics are recorded in both modes for comparability.
	if route.History[0].LiveCount != drop.History[0].LiveCount {
		t.Fatal("round 0 live counts should match across modes")
	}
	same := true
	for i := range drop.History {
		if drop.History[i].MeanAcc != route.History[i].MeanAcc ||
			drop.History[i].MeanSoC != route.History[i].MeanSoC {
			same = false
			break
		}
	}
	if same {
		t.Fatal("dropout mode produced a bit-identical run to route-through")
	}
}

func TestBrownoutDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) *Result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		res, err := Run(brownoutConfig(t, 35))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	wide := run(8)
	for r := range serial.History {
		a, b := serial.History[r], wide.History[r]
		if a.MeanAcc != b.MeanAcc || a.MeanSoC != b.MeanSoC || a.TrainedCount != b.TrainedCount ||
			a.LiveCount != b.LiveCount || a.DroppedSends != b.DroppedSends ||
			a.LiveComponents != b.LiveComponents || a.MeanLiveDegree != b.MeanLiveDegree {
			t.Fatalf("round %d differs across GOMAXPROCS: %+v vs %+v", r, a, b)
		}
	}
	if serial.TotalDroppedSends != wide.TotalDroppedSends {
		t.Fatalf("dropped sends differ: %d vs %d", serial.TotalDroppedSends, wide.TotalDroppedSends)
	}
}

func TestCheckpointValidation(t *testing.T) {
	cfg := testConfig(t, 40)
	cfg.Rejoin = ResumeStale{}
	if _, err := Run(cfg); err == nil {
		t.Fatal("Rejoin without DropDeadNodes should error")
	}
	// A rule is no run state: one value serves any number of runs, alike.
	rule, err := NewCatchUp(2)
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for range 2 {
		cfg := brownoutConfig(t, 40)
		cfg.Rejoin = rule
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, resultDigest(res))
	}
	if digests[0] != digests[1] {
		t.Fatal("a rejoin rule reused across runs changed the second run")
	}
}

// TestCheckpointResumeStaleIsBaseline pins that ResumeStale is exactly the
// engine without a rule: the same history, revival accounting included,
// and no restores.
func TestCheckpointResumeStaleIsBaseline(t *testing.T) {
	plain, err := Run(brownoutConfig(t, 41))
	if err != nil {
		t.Fatal(err)
	}
	cfg := brownoutConfig(t, 41)
	cfg.Rejoin = ResumeStale{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resultDigest(plain) != resultDigest(res) {
		t.Fatal("resume-stale diverged from the run without a rule")
	}
	if res.TotalRevivals == 0 {
		t.Fatal("scenario produced no revivals; rejoin path untested")
	}
	if res.TotalRestores != 0 {
		t.Fatalf("resume-stale restored %d times", res.TotalRestores)
	}
	var sawStaleness bool
	for _, m := range res.History {
		if m.Revivals > 0 {
			if m.MeanStaleness < 1 || m.MaxStaleness < 1 {
				t.Fatalf("round %d: revivals without staleness: %+v", m.Round, m)
			}
			if float64(m.MaxStaleness) < m.MeanStaleness {
				t.Fatalf("round %d: max staleness below mean", m.Round)
			}
			sawStaleness = true
		} else if m.MeanStaleness != 0 || m.MaxStaleness != 0 {
			t.Fatalf("round %d: staleness without revivals: %+v", m.Round, m)
		}
	}
	if !sawStaleness {
		t.Fatal("no round recorded staleness")
	}
}

// TestCheckpointRestoreChangesTrajectory: a restoring rule must actually
// alter the run once revivals happen, and count its restores.
func TestCheckpointRestoreChangesTrajectory(t *testing.T) {
	run := func(rule RejoinRule) *Result {
		cfg := brownoutConfig(t, 42)
		cfg.Rejoin = rule
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	stale := run(ResumeStale{})
	restore := run(RestoreCheckpoint{})
	if stale.TotalRevivals == 0 || restore.TotalRevivals != stale.TotalRevivals {
		t.Fatalf("revivals: stale %d, restore %d (want equal and > 0)",
			stale.TotalRevivals, restore.TotalRevivals)
	}
	if restore.TotalRestores == 0 {
		t.Fatal("restore-checkpoint never restored")
	}
	same := true
	for i := range stale.History {
		if stale.History[i].MeanAcc != restore.History[i].MeanAcc {
			same = false
			break
		}
	}
	if same {
		t.Fatal("restore rule produced a bit-identical run to resume-stale")
	}
}

// scriptedOutage keeps node 0 of n browned out in rounds 3-5.
func scriptedOutage(n int) func(round int) []bool {
	return func(round int) []bool {
		live := make([]bool, n)
		for i := range live {
			live[i] = i != 0 || round < 3 || round >= 6
		}
		return live
	}
}

// TestRejoinScriptedLifecycle drives a known death/revival pattern through
// a Liveness hook and checks the rejoin exactly: node 0 was last live in
// round 2, stays dead through round 5 and revives at round 6 with
// staleness 3.
func TestRejoinScriptedLifecycle(t *testing.T) {
	cfg := testConfig(t, 43)
	cfg.Rounds = 10
	cfg.DropDeadNodes = true
	cfg.Liveness = scriptedOutage(8)
	rule, err := NewCatchUp(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rejoin = rule
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRevivals != 1 || res.TotalRestores != 1 {
		t.Fatalf("revivals/restores = %d/%d, want 1/1", res.TotalRevivals, res.TotalRestores)
	}
	m := res.History[6]
	if m.Revivals != 1 || m.MeanStaleness != 3 || m.MaxStaleness != 3 {
		t.Fatalf("revival round metrics %+v, want staleness 3", m)
	}
	for i, mm := range res.History {
		if i != 6 && mm.Revivals != 0 {
			t.Fatalf("round %d recorded %d revivals", i, mm.Revivals)
		}
	}
	// The revived node trains again after rejoin (it is live rounds 6-9).
	if res.TrainedRounds[0] != 3+4 {
		t.Fatalf("node 0 trained %d rounds, want 7", res.TrainedRounds[0])
	}
}

func TestRejoinDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) *Result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cfg := brownoutConfig(t, 44)
		rule, err := NewCatchUp(2)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Rejoin = rule
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	wide := run(8)
	if serial.TotalRevivals == 0 || serial.TotalDroppedSends == 0 {
		t.Fatalf("scenario produced %d revivals and %d dropped sends", serial.TotalRevivals, serial.TotalDroppedSends)
	}
	for r := range serial.History {
		a, b := serial.History[r], wide.History[r]
		if a.MeanAcc != b.MeanAcc || a.Revivals != b.Revivals || a.Restores != b.Restores ||
			a.MeanStaleness != b.MeanStaleness || a.MaxStaleness != b.MaxStaleness ||
			a.DroppedSends != b.DroppedSends {
			t.Fatalf("round %d differs across GOMAXPROCS: %+v vs %+v", r, a, b)
		}
	}
	if serial.TotalRestores != wide.TotalRestores {
		t.Fatalf("restores differ: %d vs %d", serial.TotalRestores, wide.TotalRestores)
	}
}

// mpcConfig is the brown-out world driven by the forecast-aware MPC
// policy: an oracle forecaster over the run's own diurnal trace, one
// 8-round day of lookahead.
func mpcConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	cfg := brownoutConfig(t, seed)
	policy, err := harvest.NewHorizonPlan(0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Algo = core.Algorithm{Label: "mpc", Schedule: core.AllTrain{}, Policy: policy}
	oracle, err := harvest.NewOracle(traceOf(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Forecast = oracle
	cfg.ForecastHorizon = 8
	return cfg
}

// traceOf rebuilds the diurnal trace brownoutConfig attached to its fleet,
// phase-for-phase, so the oracle forecasts the same sun.
func traceOf(t *testing.T, cfg Config) harvest.Trace {
	t.Helper()
	n := cfg.Graph.N
	w := energy.CIFAR10Workload()
	meanTrainWh := energy.NetworkRoundWh(n, energy.Devices(), w) / float64(n)
	trace, err := harvest.NewDiurnal(1.0*meanTrainWh, 8, harvest.LongitudePhase(n))
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

func TestForecastConfigValidation(t *testing.T) {
	oracle := func() harvest.Forecaster {
		o, err := harvest.NewOracle(harvest.Constant{Wh: 0})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	// A forecaster needs a fleet and a positive window; a window needs a
	// forecaster.
	cfg := testConfig(t, 50)
	cfg.Forecast = oracle()
	cfg.ForecastHorizon = 4
	if _, err := Run(cfg); err == nil {
		t.Fatal("Forecast without a fleet should error")
	}
	cfg2 := harvestConfig(t, 50)
	cfg2.Forecast = oracle()
	if _, err := Run(cfg2); err == nil {
		t.Fatal("Forecast without ForecastHorizon should error")
	}
	cfg3 := harvestConfig(t, 50)
	cfg3.ForecastHorizon = 4
	if _, err := Run(cfg3); err == nil {
		t.Fatal("ForecastHorizon without Forecast should error")
	}
	// Declared policy needs are checked up front.
	cfg4 := testConfig(t, 50)
	threshold, err := harvest.NewSoCThreshold(0.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg4.Algo = core.Algorithm{Label: "no-fleet", Schedule: core.AllTrain{}, Policy: threshold}
	if _, err := Run(cfg4); err == nil {
		t.Fatal("battery-dependent policy without a fleet should error")
	}
	cfg5 := harvestConfig(t, 50)
	mpc, err := harvest.NewHorizonPlan(0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg5.Algo = core.Algorithm{Label: "no-forecast", Schedule: core.AllTrain{}, Policy: mpc}
	if _, err := Run(cfg5); err == nil {
		t.Fatal("forecast-dependent policy without a forecaster should error")
	}
}

// TestConsumedPolicyRejected pins the policy half of the state-leak guard:
// a policy carrying a prior run's state is rejected exactly like a
// consumed fleet, and Reset reopens it for a bit-identical replay.
func TestConsumedPolicyRejected(t *testing.T) {
	mkCfg := func(p *harvest.SoCHysteresis) Config {
		cfg := brownoutConfig(t, 51)
		cfg.Algo = core.Algorithm{Label: "hysteresis", Schedule: core.AllTrain{}, Policy: p}
		return cfg
	}
	policy, err := harvest.NewSoCHysteresis(8, 0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(mkCfg(policy))
	if err != nil {
		t.Fatal(err)
	}
	if !policy.Consumed() {
		t.Fatal("the first run left no node dormant")
	}
	if _, err := Run(mkCfg(policy)); err == nil {
		t.Fatal("Run accepted a policy consumed by a prior run")
	} else if !strings.Contains(err.Error(), "consumed") {
		t.Fatalf("unhelpful reuse error: %v", err)
	}
	policy.Reset()
	again, err := Run(mkCfg(policy))
	if err != nil {
		t.Fatal(err)
	}
	if first.FinalMeanAcc != again.FinalMeanAcc {
		t.Fatalf("post-Reset run differs: %v vs %v", first.FinalMeanAcc, again.FinalMeanAcc)
	}
}

// TestConsumedForecasterRejected closes the third leg of the state-leak
// guard: a persistence forecaster carrying a prior run's observations is
// rejected like a consumed fleet, and Reset reopens it for a replay that
// matches the first run bit-for-bit.
func TestConsumedForecasterRejected(t *testing.T) {
	mkCfg := func(persist *harvest.Persistence) Config {
		cfg := brownoutConfig(t, 54)
		policy, err := harvest.NewHorizonPlan(0.05)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Algo = core.Algorithm{Label: "mpc-persist", Schedule: core.AllTrain{}, Policy: policy}
		cfg.Forecast = persist
		cfg.ForecastHorizon = 8
		return cfg
	}
	persist, err := harvest.NewPersistence(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(mkCfg(persist))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(mkCfg(persist)); err == nil {
		t.Fatal("Run accepted a forecaster consumed by a prior run")
	} else if !strings.Contains(err.Error(), "consumed") {
		t.Fatalf("unhelpful reuse error: %v", err)
	}
	persist.Reset()
	again, err := Run(mkCfg(persist))
	if err != nil {
		t.Fatal(err)
	}
	if first.FinalMeanAcc != again.FinalMeanAcc {
		t.Fatalf("post-Reset run differs: %v vs %v", first.FinalMeanAcc, again.FinalMeanAcc)
	}
}

func TestHorizonPlanEndToEnd(t *testing.T) {
	res, err := Run(mpcConfig(t, 52))
	if err != nil {
		t.Fatal(err)
	}
	trained := 0
	for _, tr := range res.TrainedRounds {
		trained += tr
	}
	if trained == 0 {
		t.Fatal("MPC fleet never trained")
	}
	if res.TotalHarvestWh <= 0 {
		t.Fatal("diurnal fleet harvested nothing")
	}
}

// TestForecastDeterministicAcrossGOMAXPROCS extends the bit-identity pin
// to the forecast path, with the learning forecaster (persistence) so the
// Observe feedback loop is exercised too.
func TestForecastDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) *Result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cfg := brownoutConfig(t, 53)
		policy, err := harvest.NewHorizonPlan(0.05)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Algo = core.Algorithm{Label: "mpc-persist", Schedule: core.AllTrain{}, Policy: policy}
		persist, err := harvest.NewPersistence(cfg.Graph.N, 8)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Forecast = persist
		cfg.ForecastHorizon = 8
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	wide := run(8)
	for r := range serial.History {
		a, b := serial.History[r], wide.History[r]
		if a.MeanAcc != b.MeanAcc || a.MeanSoC != b.MeanSoC || a.TrainedCount != b.TrainedCount ||
			a.LiveCount != b.LiveCount {
			t.Fatalf("round %d differs across GOMAXPROCS: %+v vs %+v", r, a, b)
		}
	}
}

func TestNilLivenessRecordsAllLiveMetrics(t *testing.T) {
	// A Liveness hook returning nil means "all live": the live metrics must
	// say so rather than report zeros, and the run must match a plain one.
	cfg := testConfig(t, 36)
	cfg.DropDeadNodes = true
	cfg.Liveness = func(int) []bool { return nil }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.History {
		if m.LiveCount != 8 {
			t.Fatalf("round %d LiveCount = %d, want 8", m.Round, m.LiveCount)
		}
		if m.LiveComponents != 1 || m.MeanLiveDegree != 4 {
			t.Fatalf("round %d live topology %d comps / %.2f deg, want 1 / 4", m.Round, m.LiveComponents, m.MeanLiveDegree)
		}
	}
	if res.TotalDroppedSends != 0 {
		t.Fatalf("all-live run dropped %d sends", res.TotalDroppedSends)
	}
	plain, err := Run(testConfig(t, 36))
	if err != nil {
		t.Fatal(err)
	}
	if plain.FinalMeanAcc != res.FinalMeanAcc {
		t.Fatalf("all-live dropout run diverged from plain run: %.6f vs %.6f",
			res.FinalMeanAcc, plain.FinalMeanAcc)
	}
}
