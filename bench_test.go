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
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/async"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/tensor"
	"repro/internal/transport"
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
	b.ReportMetric(res.EnergyCell(1, 4), "energy-cheapest-Wh") // paper: 302
	b.ReportMetric(res.EnergyCell(4, 1), "energy-dearest-Wh")  // paper: 1208
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
		budget := energy.NewBudget(repeat(rounds/2, *benchScale))
		policy := core.NewProbabilisticPolicy(core.Gamma{GammaTrain: 1, GammaSync: 0}, rounds, budget, *benchScale)
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
			if !g.HasEdge(0, j) {
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
		un := runBench(b, g, graph.Uniform(g), part, test, algo, 48, 44)
		diff = (mh.FinalMeanAcc - un.FinalMeanAcc) * 100
		once(i, func() {
			fmt.Printf("AblationMixingMatrix (irregular graph): MH=%.2f%%  uniform=%.2f%%  diff=%+.2f pp\n",
				mh.FinalMeanAcc*100, un.FinalMeanAcc*100, diff)
		})
	}
	b.ReportMetric(diff, "mh-vs-uniform-pp")
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

// BenchmarkTransportLocal measures a full engine round over the channel
// transport.
func BenchmarkTransportLocal(b *testing.B) {
	g, w, part, test := benchWorld(b, 16, 4, 46)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBench(b, g, w, part, test, core.DPSGD(), 4, 46)
	}
}

// BenchmarkTransportTCP measures the same engine rounds over real TCP.
func BenchmarkTransportTCP(b *testing.B) {
	g, w, part, test := benchWorld(b, 16, 4, 46)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net, err := transport.NewTCP(16, "127.0.0.1", 64)
		if err != nil {
			b.Skip("no localhost sockets")
		}
		b.StartTimer()
		res, err := sim.Run(sim.Config{
			Graph: g, Weights: w, Algo: core.DPSGD(), Rounds: 4,
			ModelFactory: func(node int, r *rng.RNG) *nn.Network {
				return nn.LogisticRegression(32, 10, r)
			},
			LR: 0.2, BatchSize: 16, LocalSteps: 8,
			Partition: part, Test: test,
			EvalEvery: 0, EvalSubsample: 240,
			Network: net, Seed: 46,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
		b.StopTimer()
		net.Close()
		b.StartTimer()
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
			Algo:   core.Greedy(energy.NewBudget(make([]int, *benchScale))),
			Rounds: 16,
			ModelFactory: func(node int, r *rng.RNG) *nn.Network {
				return nn.LogisticRegression(32, 10, r)
			},
			LR: 0.2, BatchSize: 16, LocalSteps: 8,
			Partition: part, Test: test,
			EvalEvery: 1, EvalSubsample: 120,
			TrackConsensus: true, EvalGlobalModel: true,
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

// Sanity: the metrics package is exercised at the root level too.
func BenchmarkMovingAverage(b *testing.B) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 17)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		metrics.MovingAverage(xs, 9)
	}
}

// BenchmarkAblationCompressedGossip compares consensus contraction under
// exact gossip vs top-k sparsified gossip with error feedback (the
// communication-reduction direction of the paper's related work). It
// reports the consensus-distance ratio after 50 mixing rounds: exact
// gossip contracts geometrically, while naively compressed gossip stalls
// at a noise floor (the reason CHOCO-style compressed consensus adds a
// damped mixing step) — at a quarter of the bandwidth.
func BenchmarkAblationCompressedGossip(b *testing.B) {
	var exactRatio, compressedRatio float64
	for it := 0; it < b.N; it++ {
		const n, dim, rounds = 32, 256, 50
		g, err := graph.Regular(n, 4, 48)
		if err != nil {
			b.Fatal(err)
		}
		w := graph.Metropolis(g)
		run := func(k int) float64 {
			r := rng.New(48)
			vecs := make([]tensor.Vector, n)
			for i := range vecs {
				vecs[i] = tensor.NewVector(dim)
				for j := range vecs[i] {
					vecs[i][j] = r.NormFloat64()
				}
			}
			efs := make([]*compress.ErrorFeedback, n)
			for i := range efs {
				efs[i] = compress.NewErrorFeedback(dim)
			}
			initial := metrics.ConsensusDistance(vecs)
			for round := 0; round < rounds; round++ {
				// Each node broadcasts a (possibly compressed) snapshot and
				// applies the W-weighted average of what it received.
				shared := make([]tensor.Vector, n)
				for i := range vecs {
					if k <= 0 || k >= dim {
						shared[i] = vecs[i].Clone()
					} else {
						shared[i] = efs[i].Compress(vecs[i], k).Dense()
					}
				}
				next := make([]tensor.Vector, n)
				for i := range vecs {
					acc := tensor.NewVector(dim)
					tensor.AXPY(acc, w.Self[i], shared[i])
					for kk, j := range g.Adj[i] {
						tensor.AXPY(acc, w.Nbr[i][kk], shared[j])
					}
					next[i] = acc
				}
				vecs = next
			}
			return metrics.ConsensusDistance(vecs) / initial
		}
		exactRatio = run(0)
		compressedRatio = run(dim / 4) // keep 25% of coordinates
		once(it, func() {
			fmt.Printf("AblationCompressedGossip: consensus ratio after 50 rounds: exact=%.2e, top-25%%+EF=%.2e\n",
				exactRatio, compressedRatio)
		})
	}
	b.ReportMetric(exactRatio, "exact-ratio")
	b.ReportMetric(compressedRatio, "topk-ratio")
}

// BenchmarkGammaGrid measures the harvest-aware Γ-schedule grid search of
// TableGammaHarvest: one regime's 4x4 grid, every cell a fresh-fleet
// harvest-coupled simulation, cells fanned out across GOMAXPROCS workers
// (internal/par). BenchmarkGammaGridSerial pins the GOMAXPROCS=1 baseline
// so the parallel speedup is tracked release over release; both produce
// bit-identical grids (cells write preallocated slots).
func BenchmarkGammaGrid(b *testing.B)       { benchGammaGrid(b, 0) }
func BenchmarkGammaGridSerial(b *testing.B) { benchGammaGrid(b, 1) }

func benchGammaGrid(b *testing.B, procs int) {
	if procs > 0 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
	}
	o := experiments.Options{Nodes: *benchScale, Rounds: 32, Seed: 42}
	regime := experiments.GammaGridRegimes(o)[1] // diurnal-lo
	var res *experiments.GammaGridResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunGammaGrid(o, regime)
		if err != nil {
			b.Fatal(err)
		}
		once(i, func() { res.Render(os.Stdout) })
	}
	b.ReportMetric(res.Best.FinalAcc, "best-acc-pct")
	b.ReportMetric(float64(res.Best.GammaTrain*10+res.Best.GammaSync), "best-gamma-ts")
}

// BenchmarkSweepWarmVsCold measures the memoized sweep service's value on
// its headline workload: the full TableGammaHarvest (5 regimes x 16
// cells). Every iteration runs the search cold against an empty cell
// store and again warm against the store the cold run just filled, and
// reports both phases plus the warm speedup — the factor the
// content-addressed cache buys on an unchanged config. The warm phase
// recomputes nothing (80/80 hits); its cost is store lookups and JSON
// decodes.
func BenchmarkSweepWarmVsCold(b *testing.B) {
	o := opts(16)
	var coldNs, warmNs int64
	for i := 0; i < b.N; i++ {
		store := sweep.NewMemStore(0)

		o.Sweep = sweep.NewRunner(store, nil)
		start := time.Now()
		rows, err := experiments.TableGammaHarvest(o)
		if err != nil {
			b.Fatal(err)
		}
		coldNs += time.Since(start).Nanoseconds()
		if st := o.Sweep.Stats(); st.Hits != 0 {
			b.Fatalf("cold phase hit the cache: %s", st)
		}

		o.Sweep = sweep.NewRunner(store, nil)
		start = time.Now()
		warm, err := experiments.TableGammaHarvest(o)
		if err != nil {
			b.Fatal(err)
		}
		warmNs += time.Since(start).Nanoseconds()
		if st := o.Sweep.Stats(); !st.AllHits() {
			b.Fatalf("warm phase recomputed: %s", st)
		}
		for j := range rows {
			if rows[j] != warm[j] {
				b.Fatalf("row %d differs warm vs cold", j)
			}
		}
	}
	// No first-iteration print here: this benchmark is in the obstool
	// snapshot set, and stdout emitted mid-benchmark would split the result
	// line `obstool bench` parses. The metrics below carry the story.
	b.ReportMetric(float64(coldNs)/float64(b.N)/1e6, "cold-ms")
	b.ReportMetric(float64(warmNs)/float64(b.N)/1e6, "warm-ms")
	b.ReportMetric(float64(coldNs)/float64(warmNs), "warm-speedup")
}

// BenchmarkSweepColdWorkers pins the sweep scheduler's worker scaling on
// one cold 4x4 grid (diurnal-lo): the same simulations fanned over pools
// of 1, 2, and 4 workers. Grids are bit-identical at every width; only
// wall clock moves.
func BenchmarkSweepColdWorkers1(b *testing.B) { benchSweepCold(b, 1) }
func BenchmarkSweepColdWorkers2(b *testing.B) { benchSweepCold(b, 2) }
func BenchmarkSweepColdWorkers4(b *testing.B) { benchSweepCold(b, 4) }

func benchSweepCold(b *testing.B, workers int) {
	o := opts(16)
	regime := experiments.GammaGridRegimes(o)[1] // diurnal-lo
	for i := 0; i < b.N; i++ {
		o.Sweep = sweep.NewRunner(sweep.NewMemStore(0), par.NewPool(workers))
		res, err := experiments.RunGammaGrid(o, regime)
		if err != nil {
			b.Fatal(err)
		}
		if st := o.Sweep.Stats(); st.Misses != 16 {
			b.Fatalf("cold grid stats %s", st)
		}
		_ = res
	}
	b.ReportMetric(float64(workers), "workers")
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

// BenchmarkHarvestFleetRound measures the per-round battery-update hot path
// of the harvesting subsystem at scale: 1k nodes stepping through 1k rounds
// of TryTrain + EndRound (diurnal trace) per iteration. This is the loop a
// million-device deployment would shard, so its ns/node-round and allocation
// profile anchor the perf trajectory. The fleet is built once and rewound
// with Fleet.Reset per iteration — the cheap fresh-state path the grid
// searches rely on — so construction noise stays out of the measurement.
func BenchmarkHarvestFleetRound(b *testing.B) {
	const (
		nodes  = 1000
		rounds = 1000
	)
	devices := energy.AssignDevices(nodes, energy.Devices())
	w := energy.CIFAR10Workload()
	trace, err := harvest.NewDiurnal(0.01, 24, harvest.LongitudePhase(nodes))
	if err != nil {
		b.Fatal(err)
	}
	fleet, err := harvest.NewFleet(devices, w, trace, harvest.Options{CapacityRounds: 12, InitialSoC: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fleet.Reset(); err != nil {
			b.Fatal(err)
		}
		for t := 0; t < rounds; t++ {
			for node := 0; node < nodes; node++ {
				if fleet.SoC(node) > 0.2 {
					fleet.TryTrain(node)
				}
			}
			fleet.EndRound(t)
		}
		if fleet.HarvestedWh() <= 0 {
			b.Fatal("fleet harvested nothing")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes*rounds), "ns/node-round")
}

// BenchmarkSoAFleetRound measures the fleet on the exact scenario of
// BenchmarkHarvestFleetRound — 1k nodes, 1k rounds, diurnal trace,
// train-above-0.2-SoC policy — driven through the fused SweepThreshold
// instead of the per-node TryTrain + EndRound: the participation decision,
// battery update, harvest, and liveness count in one pass per node, with
// the diurnal row served from the day-row cache. (The name is the one
// BENCH_*.json and CI's regress step key on.)
func BenchmarkSoAFleetRound(b *testing.B) {
	const (
		nodes  = 1000
		rounds = 1000
	)
	devices := energy.AssignDevices(nodes, energy.Devices())
	w := energy.CIFAR10Workload()
	trace, err := harvest.NewDiurnal(0.01, 24, harvest.LongitudePhase(nodes))
	if err != nil {
		b.Fatal(err)
	}
	fleet, err := harvest.NewFleet(devices, w, trace, harvest.Options{CapacityRounds: 12, InitialSoC: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fleet.Reset(); err != nil {
			b.Fatal(err)
		}
		for t := 0; t < rounds; t++ {
			fleet.SweepThreshold(t, 0.2)
		}
		if fleet.HarvestedWh() <= 0 {
			b.Fatal("fleet harvested nothing")
		}
	}
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N*nodes*rounds)
	b.ReportMetric(perOp, "ns/node-round")
	b.ReportMetric(1e3/perOp, "Mnode-rounds/s")
}

// BenchmarkHorizonPlan measures the MPC planning hot path at fleet scale:
// 1k nodes each solving the greedy knapsack over a 96-round forecast
// window (an oracle window fill plus the survival-checked forward plan)
// per iteration — the per-round planning cost a forecast-aware deployment
// adds on top of the battery update. Plan is read-only on the battery, so
// every iteration solves the identical problem.
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
	planned := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for node := 0; node < nodes; node++ {
			oracle.Forecast(node, 0, forecast)
			ctx := core.RoundContext{Kind: core.RoundTrain, Battery: fleet, Forecast: forecast}
			plan := policy.Plan(node, ctx)
			for _, train := range plan {
				if train {
					planned++
				}
			}
		}
	}
	b.StopTimer()
	if planned == 0 {
		b.Fatal("planner never scheduled a training round")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/plan")
}

// BenchmarkHarvestFleetRoundParallel measures the same hot path with the
// policy loop fanned out across GOMAXPROCS workers (the engine's phase
// pattern) and EndRound sharding internally — the million-node
// configuration of the ROADMAP perf item. Results are bit-identical to the
// serial benchmark because all fleet state is per-node.
func BenchmarkHarvestFleetRoundParallel(b *testing.B) {
	const (
		nodes  = 1000
		rounds = 1000
	)
	devices := energy.AssignDevices(nodes, energy.Devices())
	w := energy.CIFAR10Workload()
	workers := runtime.GOMAXPROCS(0)
	trace, err := harvest.NewDiurnal(0.01, 24, harvest.LongitudePhase(nodes))
	if err != nil {
		b.Fatal(err)
	}
	fleet, err := harvest.NewFleet(devices, w, trace, harvest.Options{CapacityRounds: 12, InitialSoC: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fleet.Reset(); err != nil {
			b.Fatal(err)
		}
		chunk := (nodes + workers - 1) / workers
		for t := 0; t < rounds; t++ {
			var wg sync.WaitGroup
			for lo := 0; lo < nodes; lo += chunk {
				hi := lo + chunk
				if hi > nodes {
					hi = nodes
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					for node := lo; node < hi; node++ {
						if fleet.SoC(node) > 0.2 {
							fleet.TryTrain(node)
						}
					}
				}(lo, hi)
			}
			wg.Wait()
			fleet.EndRound(t)
		}
		if fleet.HarvestedWh() <= 0 {
			b.Fatal("fleet harvested nothing")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes*rounds), "ns/node-round")
}

// BenchmarkAsyncHarvestEventLoop measures the event-driven intermittency
// engine end to end: a 64-node fleet on a scarce diurnal trace, every
// local step an admission check plus a continuous battery integration,
// sleeping nodes woken at solved charge-arrival crossings, and in-flight
// steps interrupted at exact cutoff crossings. LocalSteps 1 on a small
// model keeps SGD cheap, so the heap, crossing solvers, and per-segment
// trace integration dominate — the cost the refactor added over the
// budget-contract step clock.
func BenchmarkAsyncHarvestEventLoop(b *testing.B) {
	const nodes = 64
	g, err := graph.Regular(nodes, 6, 42)
	if err != nil {
		b.Fatal(err)
	}
	data := dataset.SyntheticConfig{Classes: 10, Dim: 16, Train: nodes * 24, Test: 240, Noise: 2.5, Seed: 42}
	train, testAll, err := dataset.Generate(data)
	if err != nil {
		b.Fatal(err)
	}
	part, err := dataset.ShardPartition(train, nodes, 2, 42)
	if err != nil {
		b.Fatal(err)
	}
	devices := energy.AssignDevices(nodes, energy.Devices())
	w := energy.CIFAR10Workload()
	mean := energy.NetworkRoundWh(nodes, energy.Devices(), w) / float64(nodes)
	stepSec := 0.0
	for _, d := range devices {
		stepSec += d.TrainRoundSeconds(w)
	}
	stepSec /= nodes
	const traceRounds = 96
	steps := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace, err := harvest.NewDiurnal(1.2*mean, 24, harvest.LongitudePhase(nodes))
		if err != nil {
			b.Fatal(err)
		}
		policy, err := harvest.NewSoCThreshold(0.2)
		if err != nil {
			b.Fatal(err)
		}
		res, err := async.Run(async.Config{
			Graph:        g,
			Algo:         core.Algorithm{Label: "bench", Schedule: core.AllTrain{}, Policy: policy},
			Horizon:      traceRounds * stepSec,
			ModelFactory: func(node int, r *rng.RNG) *nn.Network { return nn.LogisticRegression(16, 10, r) },
			LR:           0.2, BatchSize: 8, LocalSteps: 1,
			Partition: part, Test: testAll,
			Devices: devices, Workload: w,
			Trace: trace,
			FleetOptions: harvest.Options{
				CapacityRounds: 8, InitialSoC: 0.3, CutoffSoC: 0.1, IdleWh: 0.2 * mean,
			},
			RoundSeconds: stepSec,
			Seed:         42,
		})
		if err != nil {
			b.Fatal(err)
		}
		steps = 0
		for _, s := range res.StepsPerNode {
			steps += s
		}
		if steps == 0 || res.Brownouts == 0 {
			b.Fatalf("event loop idle: %d steps, %d brown-outs", steps, res.Brownouts)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
}
