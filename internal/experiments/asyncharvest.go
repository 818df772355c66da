package experiments

import (
	"fmt"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/harvest"
	"repro/internal/report"
	"repro/internal/sim"
)

// The async-harvest table compares the two intermittency engines on
// identical physics: the round-synchronous engine (sim.Run, batteries
// settled once per global round) and the event-driven engine (async.Run,
// batteries on the continuous virtual clock with solved wake and brown-out
// crossings). Both legs of each regime share trace parameters, seeds,
// fleet shaping, and participation policy, so differences in accuracy,
// energy, and outage share are attributable to the time model alone.

// AsyncHarvestRow summarizes one (regime, engine) run.
type AsyncHarvestRow struct {
	Regime        string  // harvest regime: "diurnal" or "markov"
	Engine        string  // "sync-round" or "async-event"
	FinalAcc      float64 // mean final test accuracy, %
	Steps         int     // local step slots processed (sync: nodes x rounds)
	Trained       int     // steps that included local SGD
	BrownoutShare float64 // share of node-time below cutoff, %
	HarvestedWh   float64 // stored ambient energy (sim scale)
	ConsumedWh    float64 // battery drain: train + comm + idle (sim scale)
}

// TableAsyncHarvest runs the 2x2 comparison (harvest regime x intermittency
// engine) and renders the table. The async horizon covers exactly
// o.Rounds trace rounds at the fleet-mean step duration, so both engines
// see the same stretch of the ambient process.
func TableAsyncHarvest(o Options) ([]AsyncHarvestRow, error) {
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
	meanStepSec := 0.0
	for _, d := range devices {
		meanStepSec += d.TrainRoundSeconds(workload)
	}
	meanStepSec /= float64(len(devices))

	schedule := core.AllTrain{}
	var rows []AsyncHarvestRow
	for _, regime := range brownoutRegimes(o, meanTrainWh) {
		// Sync leg: the round engine with the physical dead-node model
		// (dropped edges), the closest analogue of the event engine's
		// dropped gossips.
		trace, err := regime.trace()
		if err != nil {
			return nil, fmt.Errorf("experiments: async-harvest %s: %w", regime.name, err)
		}
		fleet, err := harvest.NewFleet(devices, workload, trace, brownoutFleetOptions(meanTrainWh))
		if err != nil {
			return nil, fmt.Errorf("experiments: async-harvest %s: %w", regime.name, err)
		}
		policy, err := harvest.NewSoCThreshold(0.35)
		if err != nil {
			return nil, fmt.Errorf("experiments: async-harvest %s: %w", regime.name, err)
		}
		res, err := sim.Run(sim.Config{
			Graph: g, Weights: weights,
			Algo:         core.Algorithm{Label: "sync/" + regime.name, Schedule: schedule, Policy: policy},
			Rounds:       o.Rounds,
			ModelFactory: modelFactory(32, 10),
			LR:           o.LR, BatchSize: o.BatchSize, LocalSteps: o.LocalSteps,
			Partition: part, Test: test,
			EvalEvery: o.EvalEvery, EvalSubsample: o.EvalSubsample,
			Devices: devices, Workload: workload,
			Harvest:       fleet,
			DropDeadNodes: true,
			Seed:          o.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: async-harvest sync/%s: %w", regime.name, err)
		}
		trained, depletedSum := 0, 0.0
		for _, tr := range res.TrainedRounds {
			trained += tr
		}
		for _, m := range res.History {
			depletedSum += float64(m.Depleted)
		}
		rows = append(rows, AsyncHarvestRow{
			Regime:        regime.name,
			Engine:        "sync-round",
			FinalAcc:      res.FinalMeanAcc * 100,
			Steps:         o.Nodes * o.Rounds,
			Trained:       trained,
			BrownoutShare: 100 * depletedSum / (float64(len(res.History)) * float64(o.Nodes)),
			HarvestedWh:   res.TotalHarvestWh,
			ConsumedWh:    fleet.ConsumedWh(),
		})

		// Async leg: same trace parameters and seed on a fresh instance,
		// same fleet shaping and policy, horizon spanning the same
		// o.Rounds trace rounds.
		atrace, err := regime.trace()
		if err != nil {
			return nil, fmt.Errorf("experiments: async-harvest %s: %w", regime.name, err)
		}
		apolicy, err := harvest.NewSoCThreshold(0.35)
		if err != nil {
			return nil, fmt.Errorf("experiments: async-harvest %s: %w", regime.name, err)
		}
		ares, err := async.Run(async.Config{
			Graph:        g,
			Algo:         core.Algorithm{Label: "async/" + regime.name, Schedule: schedule, Policy: apolicy},
			Horizon:      float64(o.Rounds) * meanStepSec,
			ModelFactory: modelFactory(32, 10),
			LR:           o.LR, BatchSize: o.BatchSize, LocalSteps: o.LocalSteps,
			Partition: part, Test: test,
			Devices: devices, Workload: workload,
			Trace:            atrace,
			FleetOptions:     brownoutFleetOptions(meanTrainWh),
			RoundSeconds:     meanStepSec,
			EvalEverySeconds: float64(o.EvalEvery) * meanStepSec,
			EvalSubsample:    o.EvalSubsample,
			Seed:             o.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: async-harvest async/%s: %w", regime.name, err)
		}
		asteps, atrained := 0, 0
		for i := range ares.StepsPerNode {
			asteps += ares.StepsPerNode[i]
			atrained += ares.TrainedSteps[i]
		}
		rows = append(rows, AsyncHarvestRow{
			Regime:        regime.name,
			Engine:        "async-event",
			FinalAcc:      ares.FinalMeanAcc * 100,
			Steps:         asteps,
			Trained:       atrained,
			BrownoutShare: 100 * ares.BrownoutShare,
			HarvestedWh:   ares.HarvestedWh,
			ConsumedWh:    ares.ConsumedWh,
		})
	}

	tb := report.NewTable("Intermittency engines: round-synchronous vs event-driven under identical harvest traces (sim scale)",
		"Regime", "Engine", "Acc %", "Steps", "Trained", "Brown-out %", "Harvested Wh", "Consumed Wh")
	for _, r := range rows {
		tb.AddRowf("%s|%s|%.2f|%d|%d|%.1f|%.4f|%.4f",
			r.Regime, r.Engine, r.FinalAcc, r.Steps, r.Trained,
			r.BrownoutShare, r.HarvestedWh, r.ConsumedWh)
	}
	tb.Render(o.Out)
	return rows, nil
}
