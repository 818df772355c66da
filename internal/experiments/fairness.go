package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
)

// Section51Result quantifies the fairness discussion of the paper's
// Section 5.1: energy-aware skipping trains low-battery devices less, which
// can bias the converged model toward high-energy devices. The paper leaves
// measuring this to future work; this experiment measures it.
type Section51Result struct {
	Constrained *metrics.FairnessReport
	Baseline    *metrics.FairnessReport // D-PSGD, energy-oblivious
}

// Section51Fairness runs SkipTrain-constrained and D-PSGD on the CIFAR-like
// setting and compares per-device-group accuracy, participation inequality
// (Gini), and the correlation between a node's energy budget and its final
// accuracy.
func Section51Fairness(o Options) (*Section51Result, error) {
	o = o.Defaults()
	g, w, err := topologyFor(o.Nodes, 6, o.Seed)
	if err != nil {
		return nil, err
	}
	part, _, test, err := CIFARLikeData(o)
	if err != nil {
		return nil, err
	}
	devices := energy.AssignDevices(o.Nodes, energy.Devices())
	groups := make([]string, o.Nodes)
	budgets := make([]float64, o.Nodes)
	workload := energy.CIFAR10Workload()
	for i, d := range devices {
		groups[i] = d.Name
		budgets[i] = float64(d.RoundBudget(workload, 0.10))
	}

	runOne := func(algo core.Algorithm) (*metrics.FairnessReport, error) {
		res, err := sim.Run(sim.Config{
			Graph: g, Weights: w,
			Algo:         algo,
			Rounds:       o.Rounds,
			ModelFactory: modelFactory(32, 10),
			LR:           o.LR, BatchSize: o.BatchSize, LocalSteps: o.LocalSteps,
			Partition: part, Test: test,
			EvalEvery: 0, EvalSubsample: o.EvalSubsample,
			Devices: devices, Workload: workload,
			Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		return metrics.NewFairnessReport(res.FinalNodeAccs, res.TrainedRounds, budgets, groups)
	}

	gamma := GammaForDegree(6)
	constrained, err := runOne(core.SkipTrainConstrained(gamma, o.Rounds,
		ScaledBudgets(o.Nodes, o.Rounds, PaperRoundsCIFAR, workload, 0.10), o.Nodes))
	if err != nil {
		return nil, err
	}
	baseline, err := runOne(core.DPSGD())
	if err != nil {
		return nil, err
	}
	out := &Section51Result{Constrained: constrained, Baseline: baseline}
	out.render(o)
	return out, nil
}

func (r *Section51Result) render(o Options) {
	tb := report.NewTable("Section 5.1: fairness under energy-aware skipping",
		"metric", "SkipTrain-constrained", "D-PSGD")
	tb.AddRowf("participation Gini|%.3f|%.3f",
		r.Constrained.ParticipationGini, r.Baseline.ParticipationGini)
	tb.AddRowf("budget-accuracy corr|%.3f|%.3f",
		r.Constrained.BudgetAccCorr, r.Baseline.BudgetAccCorr)
	tb.AddRowf("group accuracy spread pp|%.2f|%.2f",
		r.Constrained.Spread*100, r.Baseline.Spread*100)
	tb.Render(o.Out)
	// Per-group accuracies, stable order.
	var names []string
	for n := range r.Constrained.AccByGroup {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(o.Out, "  %-26s constrained %.2f%%  baseline %.2f%%\n",
			n, r.Constrained.AccByGroup[n]*100, r.Baseline.AccByGroup[n]*100)
	}
}
