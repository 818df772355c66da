package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/harvest"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sim"
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
	FinalAcc      float64 // mean final test accuracy, %
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

// harvestScenario bundles one (trace, policy) configuration. Policies are
// fleet-free — they read battery state through the round context — so the
// constructor needs only the fleet size.
type harvestScenario struct {
	name   string
	trace  func(o Options, meanTrainWh float64) (harvest.Trace, error)
	policy func(nodes int) (core.Policy, error)
}

// harvestFleetCapacityRounds puts batteries on a supercap scale where state
// of charge moves visibly within a laptop-scale horizon.
const harvestFleetCapacityRounds = 12

// TableHarvest runs the harvesting scenario family on CIFAR-like data and
// renders the comparison: a solar fleet spread over longitudes, a bursty
// Markov source, a constant trickle charger, and the no-recharge baseline.
func TableHarvest(o Options) ([]HarvestRow, error) {
	o = o.Defaults()
	g, weights, err := topologyFor(o.Nodes, 6, o.Seed)
	if err != nil {
		return nil, err
	}
	part, _, test, err := CIFARLikeData(o)
	if err != nil {
		return nil, err
	}
	devices := energy.AssignDevices(o.Nodes, energy.Devices())
	workload := energy.CIFAR10Workload()
	meanTrainWh := energy.NetworkRoundWh(o.Nodes, energy.Devices(), workload) / float64(o.Nodes)

	scenarios := []harvestScenario{
		{
			name: "dark (no recharge)",
			trace: func(Options, float64) (harvest.Trace, error) {
				return harvest.Constant{Wh: 0}, nil
			},
			policy: func(int) (core.Policy, error) {
				return harvest.NewSoCThreshold(0)
			},
		},
		{
			name: "trickle charger",
			trace: func(_ Options, mean float64) (harvest.Trace, error) {
				// 60% of a round's cost arrives per round: steady-state
				// participation settles near the replenishment rate.
				return harvest.Constant{Wh: 0.6 * mean}, nil
			},
			policy: func(int) (core.Policy, error) {
				return harvest.NewSoCThreshold(0.2)
			},
		},
		{
			name: "solar diurnal",
			trace: func(o Options, mean float64) (harvest.Trace, error) {
				return harvest.NewDiurnal(1.5*mean, diurnalPeriod(o.Rounds), harvest.LongitudePhase(o.Nodes))
			},
			policy: func(int) (core.Policy, error) {
				return harvest.NewSoCProportional(1)
			},
		},
		{
			name: "bursty markov",
			trace: func(o Options, mean float64) (harvest.Trace, error) {
				return harvest.NewMarkovOnOff(o.Nodes, 1.2*mean, 0.25, 0.35, o.Seed)
			},
			policy: func(nodes int) (core.Policy, error) {
				return harvest.NewSoCHysteresis(nodes, 0.15, 0.4)
			},
		},
	}

	schedule := core.AllTrain{}
	trainSlots := core.CountTrainRounds(schedule, o.Rounds)
	var rows []HarvestRow
	for _, sc := range scenarios {
		trace, err := sc.trace(o, meanTrainWh)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %q: %w", sc.name, err)
		}
		fleet, err := harvest.NewFleet(devices, workload, trace, harvest.Options{
			CapacityRounds: harvestFleetCapacityRounds,
			InitialSoC:     0.5,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %q: %w", sc.name, err)
		}
		policy, err := sc.policy(o.Nodes)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %q: %w", sc.name, err)
		}
		res, err := sim.Run(sim.Config{
			Graph: g, Weights: weights,
			Algo:   core.Algorithm{Label: sc.name, Schedule: schedule, Policy: policy},
			Rounds: o.Rounds,
			ModelFactory: func(node int, r *rng.RNG) *nn.Network {
				return nn.LogisticRegression(32, 10, r)
			},
			LR: o.LR, BatchSize: o.BatchSize, LocalSteps: o.LocalSteps,
			Partition: part, Test: test,
			EvalEvery: o.EvalEvery, EvalSubsample: o.EvalSubsample,
			Devices: devices, Workload: workload,
			Harvest: fleet,
			Seed:    o.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %q: %w", sc.name, err)
		}
		trained := 0
		trainedPerNode := make([]float64, o.Nodes)
		harvestPerNode := make([]float64, o.Nodes)
		for i, tr := range res.TrainedRounds {
			trained += tr
			trainedPerNode[i] = float64(tr)
			harvestPerNode[i] = fleet.NodeHarvestedWh(i)
		}
		gini, err := metrics.Gini(trainedPerNode)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %q: %w", sc.name, err)
		}
		corr, err := metrics.Pearson(harvestPerNode, res.FinalNodeAccs)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %q: %w", sc.name, err)
		}
		meanSoC := 0.0
		for _, s := range res.FinalSoC {
			meanSoC += s
		}
		meanSoC /= float64(len(res.FinalSoC))
		rows = append(rows, HarvestRow{
			Scenario:       sc.name,
			Trace:          fleet.TraceName(),
			Policy:         policy.Name(),
			FinalAcc:       res.FinalMeanAcc * 100,
			Participation:  100 * float64(trained) / float64(o.Nodes*trainSlots),
			MeanFinalSoC:   meanSoC,
			Depleted:       res.History[len(res.History)-1].Depleted,
			HarvestedWh:    res.TotalHarvestWh,
			ConsumedWh:     fleet.ConsumedWh(),
			TrainGini:      gini,
			HarvestAccCorr: corr,
		})
	}

	tb := report.NewTable("Harvesting scenarios: charge-aware policies under ambient energy (sim scale)",
		"Scenario", "Trace", "Policy", "Acc %", "Participation %", "Mean final SoC", "Depleted", "Harvested Wh", "Consumed Wh", "Train Gini", "Harvest-acc corr")
	for _, r := range rows {
		tb.AddRowf("%s|%s|%s|%.2f|%.1f|%.3f|%d|%.4f|%.4f|%.3f|%+.3f",
			r.Scenario, r.Trace, r.Policy, r.FinalAcc, r.Participation,
			r.MeanFinalSoC, r.Depleted, r.HarvestedWh, r.ConsumedWh,
			r.TrainGini, r.HarvestAccCorr)
	}
	tb.Render(o.Out)
	return rows, nil
}

// diurnalPeriod picks a day length that gives a horizon at least two full
// day/night cycles, so waves are visible at any experiment scale.
func diurnalPeriod(rounds int) int {
	period := rounds / 2
	if period > 24 {
		period = 24
	}
	if period < 2 {
		period = 2
	}
	return period
}
