package experiments

import (
	"fmt"

	"repro/internal/async"
	"repro/internal/core"
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
	FinalAcc      float64 // final test accuracy, % (readout)
	Model         ModelColumn
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
	w := newWorld(o, cifar, PaperDegree)
	rows, err := brownoutGrid(w, 2, func(regime GammaRegime, leg int) (AsyncHarvestRow, error) {
		return asyncHarvestLeg(w, regime, []string{"sync", "async"}[leg])
	})
	if err != nil {
		return nil, err
	}

	tb := report.NewTable("Intermittency engines: round-synchronous vs event-driven under identical harvest traces (sim scale)",
		"Regime", "Engine", "Acc %", modelHeader, "Steps", "Trained", "Brown-out %", "Harvested Wh", "Consumed Wh")
	for _, r := range rows {
		tb.AddRowf("%s|%s|%.2f|%s|%d|%d|%.1f|%.4f|%.4f",
			r.Regime, r.Engine, r.FinalAcc, r.Model, r.Steps, r.Trained,
			r.BrownoutShare, r.HarvestedWh, r.ConsumedWh)
	}
	tb.Render(o.Out)
	fmt.Fprintln(o.Out, periodNote(evalSamples(o, testSplit(o))))
	return rows, nil
}

// asyncHarvestLeg runs one engine, "sync" or "async", under regime. Both
// legs share the trace parameters and seed (each on a fresh instance), the
// fleet shaping and the policy. The sync leg is the round engine with the
// physical dead-node model (dropped edges), the closest analogue of the
// event engine's dropped gossips; the async leg's horizon spans the same
// o.Rounds trace rounds at the fleet-mean step duration.
func asyncHarvestLeg(w *World, regime GammaRegime, leg string) (AsyncHarvestRow, error) {
	fail := func(err error) (AsyncHarvestRow, error) {
		return AsyncHarvestRow{}, fmt.Errorf("experiments: async-harvest %s/%s: %w", leg, regime.Name, err)
	}
	algo := core.Algorithm{Label: leg + "/" + regime.Name, Schedule: core.AllTrain{}, Policy: &harvest.SoCThreshold{MinSoC: 0.35}}
	fleetOptions := brownoutFleetOptions(w.MeanTrainWh)
	if leg == "sync" {
		cfg, res, err := w.runOf(algo, func(cfg *sim.Config) (err error) {
			cfg.DropDeadNodes = true
			_, err = w.fleet(cfg, regime, fleetOptions)
			return err
		})
		if err != nil {
			return fail(err)
		}
		t := tallyRun(cfg, res)
		return AsyncHarvestRow{
			Regime:        regime.Name,
			Engine:        "sync-round",
			FinalAcc:      Readout(res, algo.Schedule),
			Model:         ModelColumnOf(res),
			Steps:         w.o.Nodes * w.o.Rounds,
			Trained:       t.trained,
			BrownoutShare: t.deadShare,
			HarvestedWh:   res.TotalHarvestWh,
			ConsumedWh:    cfg.Harvest.ConsumedWh(),
		}, nil
	}
	trace, err := regime.Trace(w.o, w.MeanTrainWh)
	if err != nil {
		return fail(err)
	}
	cfg, err := w.AsyncConfig(algo, trace, fleetOptions)
	if err != nil {
		return fail(err)
	}
	res, err := async.Run(cfg)
	if err != nil {
		return fail(err)
	}
	steps, trained := 0, 0
	for i := range res.StepsPerNode {
		steps += res.StepsPerNode[i]
		trained += res.TrainedSteps[i]
	}
	return AsyncHarvestRow{
		Regime:        regime.Name,
		Engine:        "async-event",
		FinalAcc:      Readout(res, algo.Schedule),
		Model:         ModelColumnOf(res),
		Steps:         steps,
		Trained:       trained,
		BrownoutShare: 100 * res.BrownoutShare,
		HarvestedWh:   res.HarvestedWh,
		ConsumedWh:    res.ConsumedWh,
	}, nil
}
