package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Series is one labeled curve: x (rounds or Wh) against y (accuracy).
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure1Result holds the D-PSGD vs all-reduce comparison.
type Figure1Result struct {
	DPSGD     Series // mean accuracy across nodes
	AllReduce Series // mean accuracy across nodes, each holding the global average model
	FinalGap  float64
}

// Figure1 reproduces Figure 1: standard D-PSGD against hypothetical
// all-reduce-every-round on a 6-regular topology, CIFAR-like 2-shard data.
// The paper reports an ~10% accuracy boost for all-reduce.
func Figure1(o Options) (*Figure1Result, error) {
	o = o.Defaults()
	w := newWorld(o, cifar, PaperDegree)
	algos := []core.Algorithm{core.DPSGD(), core.AllReduce()}
	runs, err := sweep.Grid(o.Sweep, len(algos), nil, func(i int) (*sim.Result, error) {
		cfg, err := w.Config(algos[i])
		if err != nil {
			return nil, err
		}
		return sim.Run(cfg)
	})
	if err != nil {
		return nil, err
	}
	dRes, aRes := runs[0], runs[1]
	out := &Figure1Result{
		DPSGD:     Series{Label: "D-PSGD"},
		AllReduce: Series{Label: "All reduce"},
	}
	for _, m := range dRes.Evaluations() {
		out.DPSGD.X = append(out.DPSGD.X, float64(m.Round+1))
		out.DPSGD.Y = append(out.DPSGD.Y, m.MeanAcc*100)
	}
	for _, m := range aRes.Evaluations() {
		out.AllReduce.X = append(out.AllReduce.X, float64(m.Round+1))
		out.AllReduce.Y = append(out.AllReduce.Y, 100*m.MeanAcc)
	}
	out.FinalGap = Readout(aRes, algos[1].Schedule) - Readout(dRes, algos[0].Schedule)

	tb := report.NewTable("Figure 1: D-PSGD vs all-reduce (test accuracy %, 6-regular)",
		"round", "D-PSGD", "All reduce")
	for i := range out.DPSGD.X {
		tb.AddRowf("%.0f|%.2f|%.2f", out.DPSGD.X[i], out.DPSGD.Y[i], out.AllReduce.Y[i])
	}
	tb.Render(o.Out)
	fmt.Fprintf(o.Out, "final gap: %+.2f pp (paper: ~ +10 pp)\n", out.FinalGap)
	fmt.Fprintf(o.Out, "D-PSGD    %s\nAllReduce %s\n",
		report.Sparkline(out.DPSGD.Y), report.Sparkline(out.AllReduce.Y))
	fmt.Fprintln(o.Out, readoutNote("mean node accuracy", evalSamples(o, testSplit(o))))
	return out, nil
}

// Figure2 renders the round-pattern illustration of Figure 2: which rounds
// are train vs sync for D-PSGD, SkipTrain and SkipTrain-constrained.
func Figure2(o Options) error {
	o = o.Defaults()
	gamma, err := core.NewGamma(2, 2)
	if err != nil {
		return err
	}
	horizon := 12
	render := func(title string, pattern func(node, t int) string, nodes int) {
		fmt.Fprintf(o.Out, "%s\n", title)
		for nd := 0; nd < nodes; nd++ {
			fmt.Fprintf(o.Out, "  node %d: ", nd)
			for t := 0; t < horizon; t++ {
				fmt.Fprintf(o.Out, "%-6s", pattern(nd, t))
			}
			fmt.Fprintln(o.Out)
		}
	}
	render("Figure 2a: D-PSGD", func(_, _ int) string { return "train" }, 4)
	render("Figure 2b: SkipTrain (Γt=2, Γs=2)", func(_, t int) string {
		return gamma.Kind(t).String()
	}, 4)
	// Constrained: probabilistic skips inside coordinated train rounds.
	// Each node's trained count is the budget it has spent.
	policy := core.NewProbabilisticPolicy(gamma, horizon, []int{2, 3, 4, 6})
	rngs, trained := make([]*rng.RNG, 4), make([]int, 4)
	for i := range rngs {
		rngs[i] = rng.Derive(o.Seed, uint64(i), 0xf16)
	}
	render("Figure 2c: SkipTrain-constrained (budgets 2,3,4,6)", func(nd, t int) string {
		if gamma.Kind(t) == core.RoundSync {
			return "sync"
		}
		ctx := core.ContextAt(gamma, t, horizon)
		ctx.Trained = trained[nd]
		if policy.Participate(nd, ctx, rngs[nd]) {
			trained[nd]++
			return "train"
		}
		return "sync"
	}, 4)
	return nil
}

// Figure3Cell is one grid-search point.
type Figure3Cell struct {
	GammaTrain, GammaSync int
	ValAcc                float64 // validation accuracy [%] at sim scale (readout)
	PaperEnergyWh         float64 // exact energy at paper scale (256 nodes, T=1000)
}

// Figure3Result holds the grid search of Section 4.3.
type Figure3Result struct {
	Degrees []int
	// Grid[d][gs-1][gt-1] for degree index d.
	Grid [][][]Figure3Cell
	// Best Γ per degree, ties broken toward lower energy (paper's rule).
	Best []Figure3Cell
}

// Figure3 reproduces the Γtrain x Γsync grid search over CIFAR-like data
// for the given topology degrees (paper: 6, 8, 10; values 1..4 each axis).
// Validation accuracy comes from scaled simulation; the energy heatmap is
// exact at paper scale (it depends only on the schedule).
func Figure3(o Options, degrees []int) (*Figure3Result, error) {
	o = o.Defaults()
	if len(degrees) == 0 {
		degrees = PaperDegrees()
	}
	res := &Figure3Result{Degrees: degrees}
	base := newWorld(o, cifar, degrees[0])
	for _, deg := range degrees {
		w := base.at(deg)
		keys, err := figure3Keys(w)
		if err != nil {
			return nil, err
		}
		// Cells run on the shared grid runner (gammagrid.go), keyed when
		// o.Sweep can serve them, with the best cell seeded from a real
		// cell.
		grid, err := gammaCells(o.Sweep, &keys, func(gt, gs int) (Figure3Cell, error) {
			gamma, err := core.NewGamma(gt, gs)
			if err != nil {
				return Figure3Cell{}, err
			}
			cfg, err := w.tuneConfig(core.SkipTrain(gamma))
			if err != nil {
				return Figure3Cell{}, err
			}
			r, err := sim.Run(cfg)
			if err != nil {
				return Figure3Cell{}, err
			}
			return Figure3Cell{
				GammaTrain: gt, GammaSync: gs,
				ValAcc:        Readout(r, gamma),
				PaperEnergyWh: paperEnergyWh(core.CountTrainRounds(gamma, PaperRoundsCIFAR), energy.CIFAR10Workload()),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		res.Grid = append(res.Grid, grid)
		res.Best = append(res.Best, bestGammaCell(grid,
			func(c Figure3Cell) float64 { return c.ValAcc },
			func(c Figure3Cell) float64 { return c.PaperEnergyWh }))
	}
	res.render(o)
	return res, nil
}

// figure3Keys are the keys of w's Figure 3 cells when o.Sweep can serve
// them, zero otherwise. Their engine, "figure3cell", is their own: no
// Figure 3 cell answers for a harvest grid's cell of the same Γ.
func figure3Keys(w *World) (keys gammaKeys, err error) {
	if w.o.Sweep != nil {
		if err = w.buildTopology(); err == nil {
			keys = gridKeys(tuningManifest(w.o, "figure3cell", "", w.graph.Fingerprint()))
		}
	}
	return keys, err
}

func (r *Figure3Result) render(o Options) {
	for di, deg := range r.Degrees {
		best := r.Best[di]
		h := gammaHeatmap(fmt.Sprintf("Figure 3: %d-regular. Validation accuracy [%%]", deg),
			r.Grid[di], func(c Figure3Cell) float64 { return c.ValAcc })
		h.HigherIsBetter = true
		h.SetMark(best.GammaSync-1, best.GammaTrain-1)
		h.Render(o.Out)
		fmt.Fprintf(o.Out, "best: Γtrain=%d Γsync=%d (%.1f%%, %.0f Wh at paper scale)\n\n",
			best.GammaTrain, best.GammaSync, best.ValAcc, best.PaperEnergyWh)
	}
	fmt.Fprintf(o.Out, "%s\n\n", periodNote(evalSamples(o, valSplit(o))))
	// Energy heatmap (schedule-only, identical for every topology).
	eh := gammaHeatmap("Figure 3 (right): Energy [Wh] at paper scale",
		r.Grid[0], func(c Figure3Cell) float64 { return c.PaperEnergyWh })
	eh.Format = "%.0f"
	eh.Render(o.Out)
}

// Figure4Point is one evaluated round near convergence.
type Figure4Point struct {
	Round   int
	Kind    core.RoundKind
	MeanAcc float64
	StdAcc  float64
}

// Figure4Result holds the train/sync sawtooth trace.
type Figure4Result struct {
	Points []Figure4Point
	// Sawtooth diagnostics: average accuracy change entering sync rounds vs
	// entering train rounds (paper: accuracy rises in sync, drops in train).
	MeanDeltaIntoSync  float64
	MeanDeltaIntoTrain float64
}

// Figure4 reproduces the train/sync trade-off: SkipTrain evaluated every
// round over the final stretch, showing accuracy rising during sync rounds
// and dropping during train rounds, with the std doing the opposite.
func Figure4(o Options) (*Figure4Result, error) {
	o = o.Defaults()
	gamma, err := core.NewGamma(4, 4)
	if err != nil {
		return nil, err
	}
	cfg, err := newWorld(o, cifar, PaperDegree).Config(core.SkipTrain(gamma))
	if err != nil {
		return nil, err
	}
	cfg.EvalEvery = 1
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	out := &Figure4Result{}
	evals := res.Evaluations()
	// Keep the final stretch (paper: rounds 970-1000 of 1000).
	tail := len(evals) / 3
	if tail < 8 {
		tail = len(evals)
	}
	evals = evals[len(evals)-tail:]
	var intoSync, intoTrain []float64
	for i, m := range evals {
		out.Points = append(out.Points, Figure4Point{Round: m.Round, Kind: m.Kind, MeanAcc: m.MeanAcc * 100, StdAcc: m.StdAcc * 100})
		if i == 0 {
			continue
		}
		if delta := (m.MeanAcc - evals[i-1].MeanAcc) * 100; m.Kind == core.RoundSync {
			intoSync = append(intoSync, delta)
		} else {
			intoTrain = append(intoTrain, delta)
		}
	}
	out.MeanDeltaIntoSync, _ = metrics.MeanStd(intoSync)
	out.MeanDeltaIntoTrain, _ = metrics.MeanStd(intoTrain)
	tb := report.NewTable("Figure 4: SkipTrain test accuracy per round (final stretch)",
		"round", "kind", "mean acc %", "std %")
	for _, p := range out.Points {
		tb.AddRowf("%d|%s|%.2f|%.2f", p.Round, p.Kind, p.MeanAcc, p.StdAcc)
	}
	tb.Render(o.Out)
	fmt.Fprintf(o.Out, "mean Δacc entering sync rounds: %+.3f pp; entering train rounds: %+.3f pp\n",
		out.MeanDeltaIntoSync, out.MeanDeltaIntoTrain)
	fmt.Fprintln(o.Out, readoutNote("mean node accuracy", evalSamples(o, testSplit(o))))
	return out, nil
}

// Figure5Arm is one algorithm x dataset x topology run.
type Figure5Arm struct {
	Algo        string
	Dataset     string
	Degree      int
	AccVsRound  Series
	AccVsEnergy Series  // x = cumulative paper-scale Wh
	FinalAcc    float64 // the readout, %
	Model       ModelColumn
	// PaperEnergyWh is the total training energy at paper scale.
	PaperEnergyWh float64
}

// Figure5Result aggregates all arms.
type Figure5Result struct {
	Arms []Figure5Arm
}

// Arm retrieves an arm by keys; nil if absent.
func (r *Figure5Result) Arm(algo, ds string, degree int) *Figure5Arm {
	return findArm(r.Arms, func(a *Figure5Arm) bool { return a.Algo == algo && a.Dataset == ds && a.Degree == degree })
}

// findArm is the first of arms that match accepts, nil if none does.
func findArm[A any](arms []A, match func(*A) bool) *A {
	for i := range arms {
		if match(&arms[i]) {
			return &arms[i]
		}
	}
	return nil
}

// GammaForDegree returns the tuned (Γtrain, Γsync) of Section 4.3 for each
// topology degree: (4,4) for 6-regular, (3,3) for 8-regular, (4,2) for
// 10-regular; defaults to (4,4) otherwise.
func GammaForDegree(deg int) core.Gamma {
	switch deg {
	case 8:
		return core.Gamma{GammaTrain: 3, GammaSync: 3}
	case 10:
		return core.Gamma{GammaTrain: 4, GammaSync: 2}
	default:
		return core.Gamma{GammaTrain: 4, GammaSync: 4}
	}
}

// Figure5 reproduces the SkipTrain vs D-PSGD comparison over both datasets
// and the given degrees, producing accuracy-vs-round and accuracy-vs-energy
// curves (energy at paper scale).
func Figure5(o Options, degrees []int, datasets []string) (*Figure5Result, error) {
	o = o.Defaults()
	arms, err := armGrid(o, datasets, degrees, []namedAlgo{
		{"D-PSGD", func(*World) core.Algorithm { return core.DPSGD() }},
		{"SkipTrain", func(w *World) core.Algorithm { return core.SkipTrain(GammaForDegree(w.degree)) }},
	}, figure5Arm)
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{Arms: arms}
	res.render(o)
	return res, nil
}

// namedAlgo is one algorithm of Figures 5 and 6 under the name the
// figures and Tables 3 and 4 give it, built for a world.
type namedAlgo struct {
	name  string
	build func(*World) core.Algorithm
}

// armGrid runs every algorithm on every (dataset, degree) world through
// one fan-out and returns the arms dataset-major, then by degree, then by
// algorithm. The worlds of a dataset share its data. No degrees means the
// paper's 6, 8 and 10; no datasets means both.
func armGrid[A any](o Options, datasets []string, degrees []int, algos []namedAlgo, arm func(*World, namedAlgo) (A, error)) ([]A, error) {
	if len(degrees) == 0 {
		degrees = PaperDegrees()
	}
	if len(datasets) == 0 {
		datasets = []string{cifar.name, femnist.name}
	}
	var worlds []*World
	for _, name := range datasets {
		base, err := NewWorld(o, name, degrees[0])
		if err != nil {
			return nil, err
		}
		for _, deg := range degrees {
			worlds = append(worlds, base.at(deg))
		}
	}
	return sweep.Grid(o.Sweep, len(worlds)*len(algos), nil, func(i int) (A, error) {
		return arm(worlds[i/len(algos)], algos[i%len(algos)])
	})
}

func figure5Arm(w *World, a namedAlgo) (Figure5Arm, error) {
	algo := a.build(w)
	cfg, err := w.Config(algo)
	if err != nil {
		return Figure5Arm{}, err
	}
	r, err := sim.Run(cfg)
	if err != nil {
		return Figure5Arm{}, err
	}
	arm := Figure5Arm{Algo: a.name, Dataset: w.ds.name, Degree: w.degree, FinalAcc: Readout(r, algo.Schedule), Model: ModelColumnOf(r)}
	arm.AccVsRound.Label, arm.AccVsEnergy.Label = a.name, a.name
	// Energy per scheduled train round at paper scale.
	perRound := energy.NetworkRoundWh(PaperNodes, energy.Devices(), w.ds.workload)
	paperTrainRounds := core.CountTrainRounds(algo.Schedule, w.ds.paperRounds)
	simTrainRounds := max(1, core.CountTrainRounds(algo.Schedule, cfg.Rounds))
	trainedSoFar := 0
	for _, m := range r.History {
		if m.Kind == core.RoundTrain {
			trainedSoFar++
		}
		if !m.Evaluated {
			continue
		}
		arm.AccVsRound.X = append(arm.AccVsRound.X, float64(m.Round+1))
		arm.AccVsRound.Y = append(arm.AccVsRound.Y, 100*m.MeanAcc)
		// Scale the round axis to the paper horizon for the energy axis:
		// fraction of schedule elapsed times the paper's total schedule
		// energy.
		frac := float64(trainedSoFar) / float64(simTrainRounds)
		arm.AccVsEnergy.X = append(arm.AccVsEnergy.X, frac*float64(paperTrainRounds)*perRound)
		arm.AccVsEnergy.Y = append(arm.AccVsEnergy.Y, 100*m.MeanAcc)
	}
	arm.PaperEnergyWh = float64(paperTrainRounds) * perRound
	return arm, nil
}

func (r *Figure5Result) render(o Options) {
	tb := report.NewTable("Figure 5: SkipTrain vs D-PSGD (final test accuracy %, paper-scale energy)",
		"dataset", "degree", "algorithm", "acc %", "energy Wh", modelHeader)
	for _, a := range r.Arms {
		tb.AddRowf("%s|%d|%s|%.2f|%.2f|%s", a.Dataset, a.Degree, a.Algo, a.FinalAcc, a.PaperEnergyWh, a.Model)
	}
	tb.Render(o.Out)
	for _, a := range r.Arms {
		fmt.Fprintf(o.Out, "%-8s d=%-2d %-22s %s\n", a.Dataset, a.Degree, a.Algo, report.Sparkline(OnCadence(o, a.AccVsRound)))
	}
	fmt.Fprintln(o.Out, periodNote(evalSamples(o, testSplit(o))))
}

// OnCadence is s's accuracies at the rounds on the o.EvalEvery cadence and
// at T: the readout's window rounds would crowd a sparkline at its end.
func OnCadence(o Options, s Series) []float64 {
	var y []float64
	for i, x := range s.X {
		if r := int(x); r == o.Rounds || o.EvalEvery > 0 && r%o.EvalEvery == 0 {
			y = append(y, s.Y[i])
		}
	}
	return y
}

// Figure6Arm is one constrained-setting run.
type Figure6Arm struct {
	Algo          string
	Dataset       string
	Degree        int
	AccVsEnergy   Series
	FinalAcc      float64 // the readout, %
	Model         ModelColumn
	ConsumedWh    float64 // actual training energy consumed at paper scale
	TrainedRounds []int
}

// Figure6Result aggregates the constrained comparison.
type Figure6Result struct {
	Arms []Figure6Arm
}

// Arm retrieves an arm by keys; nil if absent.
func (r *Figure6Result) Arm(algo, ds string, degree int) *Figure6Arm {
	return findArm(r.Arms, func(a *Figure6Arm) bool { return a.Algo == algo && a.Dataset == ds && a.Degree == degree })
}

// Figure6 reproduces the energy-constrained comparison: D-PSGD (energy
// oblivious), Greedy (train until battery dies), and SkipTrain-constrained
// (probabilistic spreading), with per-node budgets from the device traces.
func Figure6(o Options, degrees []int, datasets []string) (*Figure6Result, error) {
	o = o.Defaults()
	arms, err := armGrid(o, datasets, degrees, []namedAlgo{
		{"D-PSGD", func(*World) core.Algorithm { return core.DPSGD() }},
		{"Greedy", func(w *World) core.Algorithm { return core.Greedy(w.Budgets()) }},
		{"SkipTrain-constrained", func(w *World) core.Algorithm {
			return core.SkipTrainConstrained(GammaForDegree(w.degree), o.Rounds, w.Budgets())
		}},
	}, figure6Arm)
	if err != nil {
		return nil, err
	}
	res := &Figure6Result{Arms: arms}
	res.render(o)
	return res, nil
}

func figure6Arm(w *World, a namedAlgo) (Figure6Arm, error) {
	algo := a.build(w)
	cfg, err := w.Config(algo)
	if err != nil {
		return Figure6Arm{}, err
	}
	r, err := sim.Run(cfg)
	if err != nil {
		return Figure6Arm{}, err
	}
	arm := Figure6Arm{
		Algo: a.name, Dataset: w.ds.name, Degree: w.degree,
		AccVsEnergy:   Series{Label: a.name},
		FinalAcc:      Readout(r, algo.Schedule),
		Model:         ModelColumnOf(r),
		TrainedRounds: r.TrainedRounds,
	}
	// Scale consumed energy to paper scale: each scaled train round
	// represents paperRounds/o.Rounds paper rounds.
	scale := float64(w.ds.paperRounds) / float64(w.o.Rounds) * float64(PaperNodes) / float64(w.o.Nodes)
	arm.ConsumedWh = r.TotalTrainWh * scale
	for _, m := range r.History {
		if !m.Evaluated {
			continue
		}
		arm.AccVsEnergy.X = append(arm.AccVsEnergy.X, m.CumTrainWh*scale)
		arm.AccVsEnergy.Y = append(arm.AccVsEnergy.Y, 100*m.MeanAcc)
	}
	return arm, nil
}

func (r *Figure6Result) render(o Options) {
	tb := report.NewTable("Figure 6: energy-constrained comparison (final test accuracy %, paper-scale consumed Wh)",
		"dataset", "degree", "algorithm", "acc %", "consumed Wh", modelHeader)
	for _, a := range r.Arms {
		tb.AddRowf("%s|%d|%s|%.2f|%.2f|%s", a.Dataset, a.Degree, a.Algo, a.FinalAcc, a.ConsumedWh, a.Model)
	}
	tb.Render(o.Out)
	fmt.Fprintln(o.Out, periodNote(evalSamples(o, testSplit(o))))
}

// Figure7 renders the class distributions of the first ten nodes under the
// CIFAR-like 2-shard partition and the FEMNIST-like writer partition.
func Figure7(o Options) error {
	o = o.Defaults()
	cifarPart, _, _, err := cifarLikeData(o)
	if err != nil {
		return err
	}
	femnistPart, _, _, err := femnistLikeData(o)
	if err != nil {
		return err
	}
	// counts are the first ten nodes' (or every node's, of fewer)
	// histograms over the first classes.
	counts := func(p dataset.Partition, classes int) [][]int {
		out := make([][]int, min(10, len(p)))
		for i := range out {
			out[i] = p[i].ClassHistogram()[:classes]
		}
		return out
	}
	report.DotPlot(o.Out, "Figure 7 (left): CIFAR-like 2-shard class distribution, first 10 nodes",
		counts(cifarPart, cifar.classes))
	// FEMNIST has 62 classes; show the first 16 rows for readability.
	report.DotPlot(o.Out, "Figure 7 (right): FEMNIST-like writer class distribution (classes 0-15), first 10 nodes",
		counts(femnistPart, 16))
	return nil
}
