package experiments

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
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
	w := newWorld(o, cifar, PaperDegree)
	algos := []core.Algorithm{
		core.SkipTrainConstrained(GammaForDegree(6), o.Rounds, w.Budgets()),
		core.DPSGD(),
	}
	reports, err := sweep.Grid(o.Sweep, len(algos), nil, func(i int) (*metrics.FairnessReport, error) {
		cfg, err := w.Config(algos[i])
		if err != nil {
			return nil, err
		}
		cfg.EvalEvery = 0
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		groups := make([]string, len(cfg.Devices))
		budgets := make([]float64, len(cfg.Devices))
		for n, d := range cfg.Devices {
			groups[n] = d.Name
			budgets[n] = float64(d.RoundBudget(cfg.Workload, w.ds.budgetShare))
		}
		return metrics.NewFairnessReport(res.FinalNodeAccs, res.TrainedRounds, budgets, groups)
	})
	if err != nil {
		return nil, err
	}
	out := &Section51Result{Constrained: reports[0], Baseline: reports[1]}
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
	for _, n := range slices.Sorted(maps.Keys(r.Constrained.AccByGroup)) {
		fmt.Fprintf(o.Out, "  %-26s constrained %.2f%%  baseline %.2f%%\n",
			n, r.Constrained.AccByGroup[n]*100, r.Baseline.AccByGroup[n]*100)
	}
	fmt.Fprintln(o.Out, readoutNote("each node's own accuracy", evalSamples(o, testSplit(o))))
}
