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
	AllReduce Series // accuracy of the global average model
	FinalGap  float64
}

// Figure1 reproduces Figure 1: standard D-PSGD against hypothetical
// all-reduce-every-round on a 6-regular topology, CIFAR-like 2-shard data.
// The paper reports an ~10% accuracy boost for all-reduce.
func Figure1(o Options) (*Figure1Result, error) {
	o = o.Defaults()
	g, w, err := topologyFor(o.Nodes, 6, o.Seed)
	if err != nil {
		return nil, err
	}
	part, _, test, err := CIFARLikeData(o)
	if err != nil {
		return nil, err
	}
	base := sim.Config{
		Graph: g, Weights: w,
		Rounds:       o.Rounds,
		ModelFactory: modelFactory(32, 10),
		LR:           o.LR, BatchSize: o.BatchSize, LocalSteps: o.LocalSteps,
		Partition: part, Test: test,
		EvalEvery: o.EvalEvery, EvalSubsample: o.EvalSubsample,
		Seed: o.Seed,
	}
	dCfg := base
	dCfg.Algo = core.DPSGD()
	dRes, err := sim.Run(dCfg)
	if err != nil {
		return nil, err
	}
	aCfg := base
	aCfg.Algo = core.AllReduce()
	aCfg.EvalGlobalModel = true
	aRes, err := sim.Run(aCfg)
	if err != nil {
		return nil, err
	}
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
		out.AllReduce.Y = append(out.AllReduce.Y, m.GlobalAcc*100)
	}
	out.FinalGap = aRes.FinalGlobalAcc*100 - dRes.FinalMeanAcc*100

	tb := report.NewTable("Figure 1: D-PSGD vs all-reduce (test accuracy %, 6-regular)",
		"round", "D-PSGD", "All reduce")
	for i := range out.DPSGD.X {
		tb.AddRowf("%.0f|%.2f|%.2f", out.DPSGD.X[i], out.DPSGD.Y[i], out.AllReduce.Y[i])
	}
	tb.Render(o.Out)
	fmt.Fprintf(o.Out, "final gap: %+.2f pp (paper: ~ +10 pp)\n", out.FinalGap)
	fmt.Fprintf(o.Out, "D-PSGD    %s\nAllReduce %s\n",
		report.Sparkline(out.DPSGD.Y), report.Sparkline(out.AllReduce.Y))
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
	budget := energy.NewBudget([]int{2, 3, 4, 6})
	policy := core.NewProbabilisticPolicy(gamma, horizon, budget, 4)
	rngs := make([]*rng.RNG, 4)
	for i := range rngs {
		rngs[i] = rng.Derive(o.Seed, uint64(i), 0xf16)
	}
	render("Figure 2c: SkipTrain-constrained (budgets 2,3,4,6)", func(nd, t int) string {
		if gamma.Kind(t) == core.RoundSync {
			return "sync"
		}
		if policy.Participate(nd, core.ContextAt(gamma, t, horizon), rngs[nd]) {
			return "train"
		}
		return "sync"
	}, 4)
	return nil
}

// Figure3Cell is one grid-search point.
type Figure3Cell struct {
	GammaTrain, GammaSync int
	ValAcc                float64 // validation accuracy [%] at sim scale
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
		degrees = []int{6, 8, 10}
	}
	part, val, _, err := CIFARLikeData(o)
	if err != nil {
		return nil, err
	}
	res := &Figure3Result{Degrees: degrees}
	for _, deg := range degrees {
		g, w, err := topologyFor(o.Nodes, deg, o.Seed)
		if err != nil {
			return nil, err
		}
		// Cells run on the shared grid runner (gammagrid.go): fanned out
		// across workers into preallocated slots, bit-identical to the
		// serial loop, with the best cell seeded from a real cell.
		grid, err := forEachGammaCell(func(gt, gs int) (Figure3Cell, error) {
			gamma, err := core.NewGamma(gt, gs)
			if err != nil {
				return Figure3Cell{}, err
			}
			cfg := sim.Config{
				Graph: g, Weights: w,
				Algo:         core.SkipTrain(gamma),
				Rounds:       o.Rounds,
				ModelFactory: modelFactory(32, 10),
				LR:           o.LR, BatchSize: o.BatchSize, LocalSteps: o.LocalSteps,
				Partition: part, Test: val, // tuned on the validation split
				EvalEvery: 0, EvalSubsample: o.EvalSubsample,
				Seed: o.Seed,
			}
			r, err := sim.Run(cfg)
			if err != nil {
				return Figure3Cell{}, err
			}
			return Figure3Cell{
				GammaTrain: gt, GammaSync: gs,
				ValAcc:        r.FinalMeanAcc * 100,
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

func (r *Figure3Result) render(o Options) {
	rowNames := []string{"1", "2", "3", "4"}
	for di, deg := range r.Degrees {
		h := &report.Heatmap{
			Title:    fmt.Sprintf("Figure 3: %d-regular. Validation accuracy [%%]", deg),
			RowLabel: "Γs", ColLabel: "Γt",
			RowNames: rowNames, ColNames: rowNames,
			Cells:          make([][]float64, 4),
			HigherIsBetter: true,
		}
		for gs := 0; gs < 4; gs++ {
			h.Cells[gs] = make([]float64, 4)
			for gt := 0; gt < 4; gt++ {
				h.Cells[gs][gt] = r.Grid[di][gs][gt].ValAcc
			}
		}
		h.SetMark(r.Best[di].GammaSync-1, r.Best[di].GammaTrain-1)
		h.Render(o.Out)
		fmt.Fprintf(o.Out, "best: Γtrain=%d Γsync=%d (%.1f%%, %.0f Wh at paper scale)\n\n",
			r.Best[di].GammaTrain, r.Best[di].GammaSync, r.Best[di].ValAcc, r.Best[di].PaperEnergyWh)
	}
	// Energy heatmap (schedule-only, identical for every topology).
	eh := &report.Heatmap{
		Title:    "Figure 3 (right): Energy [Wh] at paper scale",
		RowLabel: "Γs", ColLabel: "Γt",
		RowNames: rowNames, ColNames: rowNames,
		Cells:  make([][]float64, 4),
		Format: "%.0f",
	}
	for gs := 0; gs < 4; gs++ {
		eh.Cells[gs] = make([]float64, 4)
		for gt := 0; gt < 4; gt++ {
			eh.Cells[gs][gt] = r.Grid[0][gs][gt].PaperEnergyWh
		}
	}
	eh.Render(o.Out)
}

// EnergyCell returns the paper-scale energy of a (Γt, Γs) cell.
func (r *Figure3Result) EnergyCell(gt, gs int) float64 {
	return r.Grid[0][gs-1][gt-1].PaperEnergyWh
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
	g, w, err := topologyFor(o.Nodes, 6, o.Seed)
	if err != nil {
		return nil, err
	}
	part, _, test, err := CIFARLikeData(o)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		Graph: g, Weights: w,
		Algo:         core.SkipTrain(gamma),
		Rounds:       o.Rounds,
		ModelFactory: modelFactory(32, 10),
		LR:           o.LR, BatchSize: o.BatchSize, LocalSteps: o.LocalSteps,
		Partition: part, Test: test,
		EvalEvery: 1, EvalSubsample: o.EvalSubsample,
		Seed: o.Seed,
	}
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
	var dSync, dTrain float64
	var nSync, nTrain int
	for i, m := range evals {
		out.Points = append(out.Points, Figure4Point{Round: m.Round, Kind: m.Kind, MeanAcc: m.MeanAcc * 100, StdAcc: m.StdAcc * 100})
		if i > 0 {
			delta := (m.MeanAcc - evals[i-1].MeanAcc) * 100
			if m.Kind == core.RoundSync {
				dSync += delta
				nSync++
			} else {
				dTrain += delta
				nTrain++
			}
		}
	}
	if nSync > 0 {
		out.MeanDeltaIntoSync = dSync / float64(nSync)
	}
	if nTrain > 0 {
		out.MeanDeltaIntoTrain = dTrain / float64(nTrain)
	}
	tb := report.NewTable("Figure 4: SkipTrain test accuracy per round (final stretch)",
		"round", "kind", "mean acc %", "std %")
	for _, p := range out.Points {
		tb.AddRowf("%d|%s|%.2f|%.2f", p.Round, p.Kind, p.MeanAcc, p.StdAcc)
	}
	tb.Render(o.Out)
	fmt.Fprintf(o.Out, "mean Δacc entering sync rounds: %+.3f pp; entering train rounds: %+.3f pp\n",
		out.MeanDeltaIntoSync, out.MeanDeltaIntoTrain)
	return out, nil
}

// Figure5Arm is one algorithm x dataset x topology run.
type Figure5Arm struct {
	Algo        string
	Dataset     string
	Degree      int
	AccVsRound  Series
	AccVsEnergy Series // x = cumulative paper-scale Wh
	FinalAcc    float64
	// PaperEnergyWh is the total training energy at paper scale.
	PaperEnergyWh float64
}

// Figure5Result aggregates all arms.
type Figure5Result struct {
	Arms []Figure5Arm
}

// Arm retrieves an arm by keys; nil if absent.
func (r *Figure5Result) Arm(algo, ds string, degree int) *Figure5Arm {
	for i := range r.Arms {
		a := &r.Arms[i]
		if a.Algo == algo && a.Dataset == ds && a.Degree == degree {
			return a
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
	if len(degrees) == 0 {
		degrees = []int{6, 8, 10}
	}
	if len(datasets) == 0 {
		datasets = []string{"cifar", "femnist"}
	}
	res := &Figure5Result{}
	for _, ds := range datasets {
		var part dataset.Partition
		var test *dataset.Dataset
		var classes int
		var workload energy.Workload
		var paperRounds int
		var err error
		switch ds {
		case "cifar":
			part, _, test, err = CIFARLikeData(o)
			classes, workload, paperRounds = 10, energy.CIFAR10Workload(), PaperRoundsCIFAR
		case "femnist":
			part, _, test, err = femnistLikeData(o)
			classes, workload, paperRounds = 62, energy.FEMNISTWorkload(), PaperRoundsFEMNIST
		default:
			return nil, fmt.Errorf("experiments: unknown dataset %q", ds)
		}
		if err != nil {
			return nil, err
		}
		for _, deg := range degrees {
			g, w, err := topologyFor(o.Nodes, deg, o.Seed)
			if err != nil {
				return nil, err
			}
			gamma := GammaForDegree(deg)
			for _, algo := range []core.Algorithm{core.DPSGD(), core.SkipTrain(gamma)} {
				cfg := sim.Config{
					Graph: g, Weights: w,
					Algo:         algo,
					Rounds:       o.Rounds,
					ModelFactory: modelFactory(32, classes),
					LR:           o.LR, BatchSize: o.BatchSize, LocalSteps: o.LocalSteps,
					Partition: part, Test: test,
					EvalEvery: o.EvalEvery, EvalSubsample: o.EvalSubsample,
					Seed: o.Seed,
				}
				r, err := sim.Run(cfg)
				if err != nil {
					return nil, err
				}
				arm := Figure5Arm{Algo: algoKey(algo), Dataset: ds, Degree: deg, FinalAcc: r.FinalMeanAcc * 100}
				// Energy per scheduled train round at paper scale.
				perRound := energy.NetworkRoundWh(PaperNodes, energy.Devices(), workload)
				trainedSoFar := 0
				for _, m := range r.History {
					if m.Kind == core.RoundTrain {
						trainedSoFar++
					}
					if !m.Evaluated {
						continue
					}
					arm.AccVsRound.X = append(arm.AccVsRound.X, float64(m.Round+1))
					arm.AccVsRound.Y = append(arm.AccVsRound.Y, m.MeanAcc*100)
					// Scale the round axis to the paper horizon for the
					// energy axis: fraction of schedule elapsed times the
					// paper's total schedule energy.
					paperTrainRounds := core.CountTrainRounds(algo.Schedule, paperRounds)
					frac := float64(trainedSoFar) / float64(maxInt(1, core.CountTrainRounds(algo.Schedule, o.Rounds)))
					arm.AccVsEnergy.X = append(arm.AccVsEnergy.X, frac*float64(paperTrainRounds)*perRound)
					arm.AccVsEnergy.Y = append(arm.AccVsEnergy.Y, m.MeanAcc*100)
				}
				arm.PaperEnergyWh = float64(core.CountTrainRounds(algo.Schedule, paperRounds)) * perRound
				arm.AccVsRound.Label = arm.Algo
				arm.AccVsEnergy.Label = arm.Algo
				res.Arms = append(res.Arms, arm)
			}
		}
	}
	res.render(o)
	return res, nil
}

func algoKey(a core.Algorithm) string {
	switch a.Schedule.(type) {
	case core.AllTrain:
		if a.Policy.Name() == "greedy" {
			return "Greedy"
		}
		if a.Aggregation == core.AggGlobal {
			return "All-Reduce"
		}
		return "D-PSGD"
	default:
		if a.Policy.Name() == "probabilistic" {
			return "SkipTrain-constrained"
		}
		return "SkipTrain"
	}
}

func (r *Figure5Result) render(o Options) {
	tb := report.NewTable("Figure 5: SkipTrain vs D-PSGD (final test accuracy %, paper-scale energy)",
		"dataset", "degree", "algorithm", "acc %", "energy Wh")
	for _, a := range r.Arms {
		tb.AddRowf("%s|%d|%s|%.2f|%.2f", a.Dataset, a.Degree, a.Algo, a.FinalAcc, a.PaperEnergyWh)
	}
	tb.Render(o.Out)
	for _, a := range r.Arms {
		fmt.Fprintf(o.Out, "%-8s d=%-2d %-22s %s\n", a.Dataset, a.Degree, a.Algo, report.Sparkline(a.AccVsRound.Y))
	}
}

// Figure6Arm is one constrained-setting run.
type Figure6Arm struct {
	Algo          string
	Dataset       string
	Degree        int
	AccVsEnergy   Series
	FinalAcc      float64
	ConsumedWh    float64 // actual training energy consumed at paper scale
	TrainedRounds []int
}

// Figure6Result aggregates the constrained comparison.
type Figure6Result struct {
	Arms []Figure6Arm
}

// Arm retrieves an arm by keys; nil if absent.
func (r *Figure6Result) Arm(algo, ds string, degree int) *Figure6Arm {
	for i := range r.Arms {
		a := &r.Arms[i]
		if a.Algo == algo && a.Dataset == ds && a.Degree == degree {
			return a
		}
	}
	return nil
}

// Figure6 reproduces the energy-constrained comparison: D-PSGD (energy
// oblivious), Greedy (train until battery dies), and SkipTrain-constrained
// (probabilistic spreading), with per-node budgets from the device traces.
func Figure6(o Options, degrees []int, datasets []string) (*Figure6Result, error) {
	o = o.Defaults()
	if len(degrees) == 0 {
		degrees = []int{6, 8, 10}
	}
	if len(datasets) == 0 {
		datasets = []string{"cifar", "femnist"}
	}
	res := &Figure6Result{}
	for _, ds := range datasets {
		var part dataset.Partition
		var test *dataset.Dataset
		var classes, paperRounds int
		var workload energy.Workload
		var fraction float64
		var err error
		switch ds {
		case "cifar":
			part, _, test, err = CIFARLikeData(o)
			classes, workload, paperRounds, fraction = 10, energy.CIFAR10Workload(), PaperRoundsCIFAR, 0.10
		case "femnist":
			part, _, test, err = femnistLikeData(o)
			classes, workload, paperRounds, fraction = 62, energy.FEMNISTWorkload(), PaperRoundsFEMNIST, 0.50
		default:
			return nil, fmt.Errorf("experiments: unknown dataset %q", ds)
		}
		if err != nil {
			return nil, err
		}
		for _, deg := range degrees {
			g, w, err := topologyFor(o.Nodes, deg, o.Seed)
			if err != nil {
				return nil, err
			}
			gamma := GammaForDegree(deg)
			algos := []func() core.Algorithm{
				func() core.Algorithm { return core.DPSGD() },
				func() core.Algorithm {
					return core.Greedy(ScaledBudgets(o.Nodes, o.Rounds, paperRounds, workload, fraction))
				},
				func() core.Algorithm {
					return core.SkipTrainConstrained(gamma, o.Rounds,
						ScaledBudgets(o.Nodes, o.Rounds, paperRounds, workload, fraction), o.Nodes)
				},
			}
			for _, mk := range algos {
				algo := mk()
				cfg := sim.Config{
					Graph: g, Weights: w,
					Algo:         algo,
					Rounds:       o.Rounds,
					ModelFactory: modelFactory(32, classes),
					LR:           o.LR, BatchSize: o.BatchSize, LocalSteps: o.LocalSteps,
					Partition: part, Test: test,
					EvalEvery: o.EvalEvery, EvalSubsample: o.EvalSubsample,
					Devices:  energy.AssignDevices(o.Nodes, energy.Devices()),
					Workload: workload,
					Seed:     o.Seed,
				}
				r, err := sim.Run(cfg)
				if err != nil {
					return nil, err
				}
				arm := Figure6Arm{
					Algo: algoKey(algo), Dataset: ds, Degree: deg,
					FinalAcc:      r.FinalMeanAcc * 100,
					TrainedRounds: r.TrainedRounds,
				}
				// Scale consumed energy to paper scale: each scaled train
				// round represents paperRounds/o.Rounds paper rounds.
				perPaperRound := energy.NetworkRoundWh(PaperNodes, energy.Devices(), workload)
				scale := float64(paperRounds) / float64(o.Rounds) * float64(PaperNodes) / float64(o.Nodes)
				arm.ConsumedWh = r.TotalTrainWh * scale
				for _, m := range r.History {
					if !m.Evaluated {
						continue
					}
					arm.AccVsEnergy.X = append(arm.AccVsEnergy.X, m.CumTrainWh*scale)
					arm.AccVsEnergy.Y = append(arm.AccVsEnergy.Y, m.MeanAcc*100)
				}
				arm.AccVsEnergy.Label = arm.Algo
				_ = perPaperRound
				res.Arms = append(res.Arms, arm)
			}
		}
	}
	res.render(o)
	return res, nil
}

func (r *Figure6Result) render(o Options) {
	tb := report.NewTable("Figure 6: energy-constrained comparison (final test accuracy %, paper-scale consumed Wh)",
		"dataset", "degree", "algorithm", "acc %", "consumed Wh")
	for _, a := range r.Arms {
		tb.AddRowf("%s|%d|%s|%.2f|%.2f", a.Dataset, a.Degree, a.Algo, a.FinalAcc, a.ConsumedWh)
	}
	tb.Render(o.Out)
}

// Figure7 renders the class distributions of the first ten nodes under the
// CIFAR-like 2-shard partition and the FEMNIST-like writer partition.
func Figure7(o Options) error {
	o = o.Defaults()
	cifarPart, _, _, err := CIFARLikeData(o)
	if err != nil {
		return err
	}
	femnistPart, _, _, err := femnistLikeData(o)
	if err != nil {
		return err
	}
	counts := func(p dataset.Partition, nodes int) [][]int {
		out := make([][]int, nodes)
		for i := 0; i < nodes; i++ {
			out[i] = p[i].ClassHistogram()
		}
		return out
	}
	report.DotPlot(o.Out, "Figure 7 (left): CIFAR-like 2-shard class distribution, first 10 nodes",
		counts(cifarPart, 10))
	// FEMNIST has 62 classes; show the first 16 rows for readability.
	fem := counts(femnistPart, 10)
	for i := range fem {
		fem[i] = fem[i][:16]
	}
	report.DotPlot(o.Out, "Figure 7 (right): FEMNIST-like writer class distribution (classes 0-15), first 10 nodes",
		fem)
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TimeToAccuracy extracts, for every Figure 5 arm, the first round and the
// first paper-scale energy at which the arm reaches the target accuracy
// (percent). Entries are -1 when the arm never reaches it. This quantifies
// the paper's claim that synchronization rounds accelerate convergence.
type TimeToAccuracy struct {
	Algo    string
	Dataset string
	Degree  int
	Round   float64
	Wh      float64
}

// TimeTo computes time-to-accuracy for all arms.
func (r *Figure5Result) TimeTo(targetPct float64) []TimeToAccuracy {
	var out []TimeToAccuracy
	for _, a := range r.Arms {
		out = append(out, TimeToAccuracy{
			Algo: a.Algo, Dataset: a.Dataset, Degree: a.Degree,
			Round: metrics.RoundsToTarget(a.AccVsRound.X, a.AccVsRound.Y, targetPct),
			Wh:    metrics.RoundsToTarget(a.AccVsEnergy.X, a.AccVsEnergy.Y, targetPct),
		})
	}
	return out
}
