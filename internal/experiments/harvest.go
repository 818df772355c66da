package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harvest"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The harvesting scenario table extends the paper's evaluation beyond its
// static energy budgets: each scenario swaps the fixed τ_i of Section 2.3
// for a live battery fed by an ambient source (internal/harvest), and pairs
// it with a charge-aware participation policy. The "dark" scenario (no
// recharge) is the paper's constrained setting recovered as a special case.

// HarvestRow summarizes one harvesting scenario run.
type HarvestRow struct {
	Scenario      string
	Trace         string
	Policy        string
	FinalAcc      float64 // final test accuracy, % (readout)
	Model         ModelColumn
	Participation float64 // trained rounds / coordinated training slots, %
	MeanFinalSoC  float64 // fleet-average SoC after the last round
	Depleted      int     // nodes below cutoff at the end
	HarvestedWh   float64 // stored ambient energy (sim scale)
	ConsumedWh    float64 // battery drain: train + comm + idle (sim scale)

	// Fairness view (internal/metrics): ambient sources are spatially
	// biased — a solar fleet trains day-side nodes far more often — so each
	// scenario reports how unequal participation was and whether the model
	// favors the energy-rich.
	TrainGini      float64 // Gini of per-node trained-round counts (0 = equal)
	HarvestAccCorr float64 // Pearson corr. of a node's stored harvest vs its final accuracy
}

// TableHarvest runs the harvesting scenario family on CIFAR-like data and
// renders the comparison: a solar fleet spread over longitudes, a bursty
// Markov source, a constant trickle charger, and the no-recharge baseline.
func TableHarvest(o Options) ([]HarvestRow, error) {
	o = o.Defaults()
	w := newWorld(o, cifar, PaperDegree)
	// Each scenario pairs a regime with a policy. Policies are fleet-free —
	// they read battery state through the round context — so the
	// hysteresis constructor needs only the fleet size.
	scenarios := []struct {
		regime GammaRegime
		policy func() (core.Policy, error)
	}{
		{constantRegime("dark (no recharge)", 0), func() (core.Policy, error) { return harvest.NewSoCThreshold(0) }},
		// 60% of a round's cost arrives per round: steady-state
		// participation settles near the replenishment rate.
		{constantRegime("trickle charger", 0.6), func() (core.Policy, error) { return harvest.NewSoCThreshold(0.2) }},
		{diurnalRegime("solar diurnal", 1.5), func() (core.Policy, error) { return harvest.NewSoCProportional(1) }},
		{markovRegime("bursty markov", 1.2, 0.25, 0.35), func() (core.Policy, error) {
			return harvest.NewSoCHysteresis(o.Nodes, 0.15, 0.4)
		}},
	}
	// Batteries on a supercap scale, where state of charge moves visibly
	// within a laptop-scale horizon.
	fleetOptions := harvest.Options{CapacityRounds: 12, InitialSoC: 0.5}

	rows, err := sweep.Grid(o.Sweep, len(scenarios), nil, func(i int) (HarvestRow, error) {
		sc := scenarios[i]
		fail := func(err error) (HarvestRow, error) {
			return HarvestRow{}, fmt.Errorf("experiments: scenario %q: %w", sc.regime.Name, err)
		}
		cfg, res, err := w.harvestRun(sc.regime.Name, sc.regime, fleetOptions, func(cfg *sim.Config, _ harvest.Trace) (err error) {
			cfg.Algo.Policy, err = sc.policy()
			return err
		})
		if err != nil {
			return fail(err)
		}
		fleet := cfg.Harvest
		trainedPerNode := make([]float64, o.Nodes)
		harvestPerNode := make([]float64, o.Nodes)
		for i, tr := range res.TrainedRounds {
			trainedPerNode[i] = float64(tr)
			harvestPerNode[i] = fleet.NodeHarvestedWh(i)
		}
		gini, err := metrics.Gini(trainedPerNode)
		if err != nil {
			return fail(err)
		}
		corr, err := metrics.Pearson(harvestPerNode, res.FinalNodeAccs)
		if err != nil {
			return fail(err)
		}
		meanSoC, _ := metrics.MeanStd(res.FinalSoC)
		return HarvestRow{
			Scenario:       sc.regime.Name,
			Trace:          fleet.TraceName(),
			Policy:         cfg.Algo.Policy.Name(),
			FinalAcc:       readout(res, cfg.Algo.Schedule),
			Model:          modelColumn(res),
			Participation:  tallyRun(cfg, res).participation,
			MeanFinalSoC:   meanSoC,
			Depleted:       res.History[len(res.History)-1].Depleted,
			HarvestedWh:    res.TotalHarvestWh,
			ConsumedWh:     fleet.ConsumedWh(),
			TrainGini:      gini,
			HarvestAccCorr: corr,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	tb := report.NewTable("Harvesting scenarios: charge-aware policies under ambient energy (sim scale)",
		"Scenario", "Trace", "Policy", "Acc %", modelHeader, "Participation %", "Mean final SoC", "Depleted", "Harvested Wh", "Consumed Wh", "Train Gini", "Harvest-acc corr")
	for _, r := range rows {
		tb.AddRowf("%s|%s|%s|%.2f|%s|%.1f|%.3f|%d|%.4f|%.4f|%.3f|%+.3f",
			r.Scenario, r.Trace, r.Policy, r.FinalAcc, r.Model, r.Participation,
			r.MeanFinalSoC, r.Depleted, r.HarvestedWh, r.ConsumedWh,
			r.TrainGini, r.HarvestAccCorr)
	}
	tb.Render(o.Out)
	fmt.Fprintln(o.Out, periodNote(evalSamples(o, testSplit(o))))
	return rows, nil
}

// diurnalPeriod picks a day length that gives a horizon at least two full
// day/night cycles, so waves are visible at any experiment scale.
func diurnalPeriod(rounds int) int {
	return max(min(rounds/2, 24), 2)
}
