// Benchmarks regenerating every table and figure of the paper's evaluation
// section, plus ablations of the reproduction's design choices.
//
//	go test -bench=. -benchmem              # everything, laptop scale
//	go test -bench=Figure5 -benchscale 256  # closer to paper scale
//
// Each benchmark prints the reproduced rows/series on its first iteration
// (so `go test -bench=. | tee bench_output.txt` captures the artifacts) and
// reports headline reproduction metrics through b.ReportMetric.
package repro_test

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
)

var benchScale = flag.Int("benchscale", 32, "nodes per benchmark experiment (paper: 256)")

// opts builds laptop-scale options for a bench; rounds scale mildly with
// the node count so bigger scales stay faithful.
func opts(rounds int) experiments.Options {
	return experiments.Options{
		Nodes:  *benchScale,
		Rounds: rounds,
		Seed:   42,
	}.Defaults()
}

// once prints only on the first benchmark iteration.
func once(i int, f func()) {
	if i == 0 {
		f()
	}
}

func BenchmarkTable1Hyperparameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := opts(8)
		once(i, func() { o.Out = os.Stdout })
		experiments.Table1(o)
	}
}

func BenchmarkTable2EnergyTraces(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		o := opts(8)
		once(i, func() { o.Out = os.Stdout })
		rows = experiments.Table2(o)
	}
	// Reproduction metric: worst relative error of the CIFAR round budgets
	// against the published {272, 324, 681, 272}.
	want := []float64{272, 324, 681, 272}
	worst := 0.0
	for i, r := range rows {
		if d := abs(float64(r.CIFARRounds)-want[i]) / want[i]; d > worst {
			worst = d
		}
	}
	b.ReportMetric(worst, "budget-rel-err")
}

func BenchmarkFigure1AllReduceGap(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		o := opts(64)
		once(i, func() { o.Out = os.Stdout })
		res, err := experiments.Figure1(o)
		if err != nil {
			b.Fatal(err)
		}
		gap = res.FinalGap
	}
	b.ReportMetric(gap, "allreduce-gap-pp") // paper: ~ +10
}

func BenchmarkFigure2SchedulePatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := opts(8)
		once(i, func() { o.Out = os.Stdout })
		if err := experiments.Figure2(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3GridSearch(b *testing.B) {
	var res *experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		o := opts(48)
		once(i, func() { o.Out = os.Stdout })
		var err error
		res, err = experiments.Figure3(o, []int{6, 8, 10})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Reproduction metrics: the exact paper-scale energies of the corner
	// cells (Figure 3 right heatmap: 302 and 1208 Wh).
	energy := func(gt, gs int) float64 { return res.Grid[0][gs-1][gt-1].PaperEnergyWh }
	b.ReportMetric(energy(1, 4), "energy-cheapest-Wh") // paper: 302
	b.ReportMetric(energy(4, 1), "energy-dearest-Wh")  // paper: 1208
}

func BenchmarkFigure4TrainSyncTradeoff(b *testing.B) {
	var res *experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		o := opts(48)
		o.EvalSubsample = 160
		once(i, func() { o.Out = os.Stdout })
		var err error
		res, err = experiments.Figure4(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Paper: accuracy rises in sync rounds, falls in train rounds.
	b.ReportMetric(res.MeanDeltaIntoSync, "delta-sync-pp")
	b.ReportMetric(res.MeanDeltaIntoTrain, "delta-train-pp")
}

func BenchmarkFigure5SkipTrainVsDPSGD(b *testing.B) {
	var res *experiments.Figure5Result
	for i := 0; i < b.N; i++ {
		o := opts(48)
		once(i, func() { o.Out = os.Stdout })
		var err error
		res, err = experiments.Figure5(o, []int{6, 8, 10}, []string{"cifar", "femnist"})
		if err != nil {
			b.Fatal(err)
		}
	}
	d := res.Arm("D-PSGD", "cifar", 6)
	s := res.Arm("SkipTrain", "cifar", 6)
	b.ReportMetric(s.FinalAcc-d.FinalAcc, "cifar-gain-pp")          // paper: ~ +7.5
	b.ReportMetric(s.PaperEnergyWh/d.PaperEnergyWh, "energy-ratio") // paper: 0.5
	if df := res.Arm("D-PSGD", "femnist", 6); df != nil {
		sf := res.Arm("SkipTrain", "femnist", 6)
		b.ReportMetric(sf.FinalAcc-df.FinalAcc, "femnist-gain-pp") // paper: ~ +0.7
	}
}

func BenchmarkFigure6Constrained(b *testing.B) {
	var res *experiments.Figure6Result
	for i := 0; i < b.N; i++ {
		o := opts(48)
		once(i, func() { o.Out = os.Stdout })
		var err error
		res, err = experiments.Figure6(o, []int{6, 8, 10}, []string{"cifar"})
		if err != nil {
			b.Fatal(err)
		}
	}
	sc := res.Arm("SkipTrain-constrained", "cifar", 6)
	gr := res.Arm("Greedy", "cifar", 6)
	b.ReportMetric(sc.FinalAcc-gr.FinalAcc, "vs-greedy-pp") // paper: up to +9
}

func BenchmarkFigure7ClassDistributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := opts(8)
		once(i, func() { o.Out = os.Stdout })
		if err := experiments.Figure7(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3UnconstrainedSummary(b *testing.B) {
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		o := opts(48)
		fig5, err := experiments.Figure5(o, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		once(i, func() { o.Out = os.Stdout })
		rows = experiments.Table3(o, fig5)
	}
	// The published 755.02 Wh (SkipTrain, CIFAR-10, 6-regular).
	for _, r := range rows {
		if r.Algo == "SkipTrain" && r.Dataset == "cifar" {
			b.ReportMetric(r.EnergyWh[6], "cifar-6reg-Wh")
		}
	}
}

func BenchmarkTable4ConstrainedSummary(b *testing.B) {
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		o := opts(48)
		fig6, err := experiments.Figure6(o, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		once(i, func() { o.Out = os.Stdout })
		rows = experiments.Table4(o, fig6)
	}
	for _, r := range rows {
		if r.Algo == "SkipTrain-constrained" && r.Dataset == "cifar" {
			b.ReportMetric(r.Acc[6], "constrained-acc-pct")
		}
	}
}

// --- Ablations of the reproduction's design choices ---

// benchWorld builds the shared ablation setting: a d-regular topology with
// CIFAR-like 2-shard data.
func benchWorld(b *testing.B, nodes, degree int, seed uint64) (*graph.Graph, *graph.Weights, dataset.Partition, *dataset.Dataset) {
	b.Helper()
	g, err := graph.Regular(nodes, degree, seed)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dataset.SyntheticConfig{Classes: 10, Dim: 32, Train: nodes * 40, Test: 480, Noise: 2.5, Seed: seed}
	train, test, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	part, err := dataset.ShardPartition(train, nodes, 2, seed)
	if err != nil {
		b.Fatal(err)
	}
	return g, graph.Metropolis(g), part, test
}

func runBench(b *testing.B, g *graph.Graph, w *graph.Weights, part dataset.Partition,
	test *dataset.Dataset, algo core.Algorithm, rounds int, seed uint64) *sim.Result {
	b.Helper()
	res, err := sim.Run(sim.Config{
		Graph: g, Weights: w, Algo: algo, Rounds: rounds,
		ModelFactory: func(node int, r *rng.RNG) *nn.Network {
			return nn.LogisticRegression(32, 10, r)
		},
		LR: 0.2, BatchSize: 16, LocalSteps: 8,
		Partition: part, Test: test,
		EvalEvery: 0, EvalSubsample: 240,
		Seed: seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationEqualEnergy compares D-PSGD run for T/2 rounds with
// SkipTrain(1,1) run for T rounds — identical training energy, so any
// accuracy difference is purely the value of the interleaved
// synchronization rounds.
func BenchmarkAblationEqualEnergy(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		g, w, part, test := benchWorld(b, *benchScale, 6, 42)
		half := runBench(b, g, w, part, test, core.DPSGD(), 32, 42)
		skip := runBench(b, g, w, part, test,
			core.SkipTrain(core.Gamma{GammaTrain: 1, GammaSync: 1}), 64, 42)
		gain = (skip.FinalMeanAcc - half.FinalMeanAcc) * 100
		once(i, func() {
			fmt.Printf("AblationEqualEnergy: D-PSGD(T/2)=%.2f%%  SkipTrain(1,1;T)=%.2f%%  gain=%+.2f pp\n",
				half.FinalMeanAcc*100, skip.FinalMeanAcc*100, gain)
		})
	}
	b.ReportMetric(gain, "sync-value-pp")
}

// BenchmarkAblationUncoordinated compares SkipTrain's coordinated sync
// blocks against uncoordinated skipping (every node independently trains
// with probability 1/2 each round) at equal expected energy.
func BenchmarkAblationUncoordinated(b *testing.B) {
	var diff float64
	for i := 0; i < b.N; i++ {
		g, w, part, test := benchWorld(b, *benchScale, 6, 43)
		const rounds = 64
		coord := runBench(b, g, w, part, test,
			core.SkipTrain(core.Gamma{GammaTrain: 2, GammaSync: 2}), rounds, 43)
		// Uncoordinated: all-train schedule; every node flips p=0.5 per round.
		policy := core.NewProbabilisticPolicy(core.Gamma{GammaTrain: 1, GammaSync: 0}, rounds, repeat(rounds/2, *benchScale))
		uncoord := runBench(b, g, w, part, test,
			core.Algorithm{Label: "uncoordinated", Schedule: core.AllTrain{}, Policy: policy},
			rounds, 43)
		diff = (coord.FinalMeanAcc - uncoord.FinalMeanAcc) * 100
		once(i, func() {
			fmt.Printf("AblationUncoordinated: coordinated=%.2f%%  uncoordinated=%.2f%%  diff=%+.2f pp\n",
				coord.FinalMeanAcc*100, uncoord.FinalMeanAcc*100, diff)
		})
	}
	b.ReportMetric(diff, "coordination-pp")
}

// BenchmarkAblationMixingMatrix compares Metropolis-Hastings weights with
// plain uniform neighborhood averaging on an irregular topology, where
// uniform averaging loses double stochasticity and with it the guarantee
// that the consensus model equals the true average.
func BenchmarkAblationMixingMatrix(b *testing.B) {
	var diff float64
	for i := 0; i < b.N; i++ {
		nodes := *benchScale
		g, err := graph.Regular(nodes, 4, 44)
		if err != nil {
			b.Fatal(err)
		}
		// Make it irregular: connect node 0 to every fourth node.
		for j := 2; j < nodes; j += 4 {
			if !slices.Contains(g.Adj[0], j) {
				g.Adj[0] = append(g.Adj[0], j)
				g.Adj[j] = append(g.Adj[j], 0)
			}
		}
		cfg := dataset.SyntheticConfig{Classes: 10, Dim: 32, Train: nodes * 40, Test: 480, Noise: 2.5, Seed: 44}
		train, test, err := dataset.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		part, err := dataset.ShardPartition(train, nodes, 2, 44)
		if err != nil {
			b.Fatal(err)
		}
		algo := core.SkipTrain(core.Gamma{GammaTrain: 2, GammaSync: 2})
		mh := runBench(b, g, graph.Metropolis(g), part, test, algo, 48, 44)
		un := runBench(b, g, uniformWeights(g), part, test, algo, 48, 44)
		diff = (mh.FinalMeanAcc - un.FinalMeanAcc) * 100
		once(i, func() {
			fmt.Printf("AblationMixingMatrix (irregular graph): MH=%.2f%%  uniform=%.2f%%  diff=%+.2f pp\n",
				mh.FinalMeanAcc*100, un.FinalMeanAcc*100, diff)
		})
	}
	b.ReportMetric(diff, "mh-vs-uniform-pp")
}

// uniformWeights is plain neighborhood averaging, W_ij = 1/(deg(i)+1) for
// each neighbor and self: row-stochastic, but not doubly stochastic on
// irregular graphs (on regular ones it is Metropolis-Hastings).
func uniformWeights(g *graph.Graph) *graph.Weights {
	w := graph.NewWeights(g)
	for i, row := range w.Nbr {
		share := 1.0 / float64(g.Degree(i)+1)
		for k := range row {
			row[k] = share
		}
		w.Self[i] = share
	}
	return w
}

// BenchmarkAblationSpectralGap relates topology density to mixing speed and
// accuracy (Section 4.3's intuition).
func BenchmarkAblationSpectralGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printIt := i == 0
		for _, deg := range []int{2, 6, 10} {
			var g *graph.Graph
			var err error
			if deg == 2 {
				g, err = graph.Ring(*benchScale)
			} else {
				g, err = graph.Regular(*benchScale, deg, 45)
			}
			if err != nil {
				b.Fatal(err)
			}
			w := graph.Metropolis(g)
			gap := w.SpectralGap(g, 300, 45)
			cfg := dataset.SyntheticConfig{Classes: 10, Dim: 32, Train: *benchScale * 40, Test: 480, Noise: 2.5, Seed: 45}
			train, test, err := dataset.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			part, err := dataset.ShardPartition(train, *benchScale, 2, 45)
			if err != nil {
				b.Fatal(err)
			}
			res := runBench(b, g, w, part, test,
				core.SkipTrain(core.Gamma{GammaTrain: 2, GammaSync: 2}), 48, 45)
			if printIt {
				fmt.Printf("AblationSpectralGap: d=%-2d gap=%.4f acc=%.2f%%\n", deg, gap, res.FinalMeanAcc*100)
			}
		}
	}
}

// BenchmarkConsensusContraction measures pure synchronization rounds: the
// speed at which consensus distance contracts under W (no training).
func BenchmarkConsensusContraction(b *testing.B) {
	g, w, part, test := benchWorld(b, *benchScale, 6, 47)
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Graph: g, Weights: w,
			Algo:   core.Greedy(make([]int, *benchScale)),
			Rounds: 16,
			ModelFactory: func(node int, r *rng.RNG) *nn.Network {
				return nn.LogisticRegression(32, 10, r)
			},
			LR: 0.2, BatchSize: 16, LocalSteps: 8,
			Partition: part, Test: test,
			EvalEvery: 1, EvalSubsample: 120, EvalGlobalModel: true,
			Seed: 47,
		})
		if err != nil {
			b.Fatal(err)
		}
		ev := res.Evaluations()
		first, last := ev[0].Consensus, ev[len(ev)-1].Consensus
		if first > 0 {
			ratio = last / first
		}
	}
	b.ReportMetric(ratio, "consensus-shrink")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// BenchmarkSection51Fairness quantifies the Section 5.1 bias discussion:
// participation inequality (Gini) and budget-accuracy correlation of
// SkipTrain-constrained vs energy-oblivious D-PSGD.
func BenchmarkSection51Fairness(b *testing.B) {
	var res *experiments.Section51Result
	for i := 0; i < b.N; i++ {
		o := opts(48)
		once(i, func() { o.Out = os.Stdout })
		var err error
		res, err = experiments.Section51Fairness(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Constrained.ParticipationGini, "gini")
	b.ReportMetric(res.Constrained.BudgetAccCorr, "budget-acc-corr")
}

// BenchmarkHorizonPlan measures the MPC planner's per-round decision at
// fleet scale: 1k nodes each filling a 96-round oracle forecast window and
// deciding whether to train now (HorizonPlan.Participate: the greedy
// knapsack's first slot, survival-checked over the window) per iteration —
// the per-round planning cost a forecast-aware deployment adds on top of
// the battery update. Participate is read-only on the battery, so every
// iteration solves the identical problem.
func BenchmarkHorizonPlan(b *testing.B) {
	const (
		nodes  = 1000
		window = 96
	)
	devices := energy.AssignDevices(nodes, energy.Devices())
	w := energy.CIFAR10Workload()
	mean := energy.NetworkRoundWh(nodes, energy.Devices(), w) / float64(nodes)
	trace, err := harvest.NewDiurnal(1.2*mean, 24, harvest.LongitudePhase(nodes))
	if err != nil {
		b.Fatal(err)
	}
	fleet, err := harvest.NewFleet(devices, w, trace, harvest.Options{
		CapacityRounds: 12, InitialSoC: 0.6, CutoffSoC: 0.2, IdleWh: 0.1 * mean,
	})
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := harvest.NewOracle(trace)
	if err != nil {
		b.Fatal(err)
	}
	policy, err := harvest.NewHorizonPlan(0.05)
	if err != nil {
		b.Fatal(err)
	}
	forecast := make([]float64, window)
	trained := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for node := 0; node < nodes; node++ {
			oracle.Forecast(node, 0, forecast)
			ctx := core.RoundContext{Kind: core.RoundTrain, Battery: fleet, Forecast: forecast}
			if policy.Participate(node, ctx, nil) {
				trained++
			}
		}
	}
	b.StopTimer()
	if trained == 0 {
		b.Fatal("planner never scheduled a training round")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/decision")
}
