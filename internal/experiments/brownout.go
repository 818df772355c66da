package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/harvest"
	"repro/internal/report"
	"repro/internal/sim"
)

// The brown-out scenario table isolates one modeling decision: what the
// simulator does with a node whose battery fell below the cutoff. The
// optimistic baseline keeps routing sync traffic through it
// (route-through-dead, the pre-dropout engine behavior); the physical model
// silences its radio, drops every incident edge for the round, and
// re-normalizes the mixing matrix over the live subgraph
// (drop-and-renormalize, sim.Config.DropDeadNodes). Both modes run on
// identical fleets, seeds, and policies across two harvest regimes —
// diurnal/solar and bursty Markov — so any accuracy gap is attributable to
// the communication model alone.

// BrownoutRow summarizes one (regime, mode) brown-out run.
type BrownoutRow struct {
	Regime        string  // harvest regime: "diurnal" or "markov"
	Mode          string  // "route-through-dead" or "drop-and-renormalize"
	FinalAcc      float64 // mean final test accuracy, %
	Participation float64 // trained rounds / coordinated training slots, %
	MeanLivePct   float64 // mean live-node share across rounds, %
	MinLive       int     // smallest live set seen in any round
	MeanLiveDeg   float64 // mean effective degree across rounds
	MeanComps     float64 // mean live-component count across rounds
	DroppedSends  int     // messages lost on dead edges (0 when routing through)
	DepletedEnd   int     // nodes below cutoff after the last round
}

// brownoutFleetOptions puts the fleet in a regime where brown-outs really
// happen: supercap capacity, a hard cutoff, and an always-on idle draw that
// can push a node below the cutoff during dark or off spells.
func brownoutFleetOptions(meanTrainWh float64) harvest.Options {
	return harvest.Options{
		CapacityRounds: 10,
		InitialSoC:     0.6,
		CutoffSoC:      0.25,
		IdleWh:         0.2 * meanTrainWh,
	}
}

// brownoutRegime is one harvest regime of the brown-out experiment family:
// a named trace constructor shared by TableBrownout and TableRejoin so both
// compare over identical fleets.
type brownoutRegime struct {
	name  string
	trace func() (harvest.Trace, error)
}

// brownoutRegimes returns the two standard regimes: diurnal/solar (regular,
// predictable outages sweeping the fleet) and bursty Markov (irregular
// outages of random length).
func brownoutRegimes(o Options, meanTrainWh float64) []brownoutRegime {
	return []brownoutRegime{
		{"diurnal", func() (harvest.Trace, error) {
			return harvest.NewDiurnal(1.2*meanTrainWh, diurnalPeriod(o.Rounds), harvest.LongitudePhase(o.Nodes))
		}},
		{"markov", func() (harvest.Trace, error) {
			return harvest.NewMarkovOnOff(o.Nodes, 1.4*meanTrainWh, 0.25, 0.35, o.Seed)
		}},
	}
}

// TableBrownout runs the 2x2 brown-out comparison (harvest regime x
// dead-node communication model) and renders the table. Every cell is
// bit-reproducible: all stochastic state is per-node and the live set is
// snapshotted once per round, so rows are identical at any GOMAXPROCS.
func TableBrownout(o Options) ([]BrownoutRow, error) {
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

	regimes := brownoutRegimes(o, meanTrainWh)

	schedule := core.AllTrain{}
	trainSlots := core.CountTrainRounds(schedule, o.Rounds)
	var rows []BrownoutRow
	for _, regime := range regimes {
		for _, drop := range []bool{false, true} {
			mode := "route-through-dead"
			if drop {
				mode = "drop-and-renormalize"
			}
			trace, err := regime.trace()
			if err != nil {
				return nil, fmt.Errorf("experiments: brownout %s: %w", regime.name, err)
			}
			fleet, err := harvest.NewFleet(devices, workload, trace, brownoutFleetOptions(meanTrainWh))
			if err != nil {
				return nil, fmt.Errorf("experiments: brownout %s: %w", regime.name, err)
			}
			policy, err := harvest.NewSoCThreshold(0.35)
			if err != nil {
				return nil, fmt.Errorf("experiments: brownout %s: %w", regime.name, err)
			}
			res, err := sim.Run(sim.Config{
				Graph: g, Weights: weights,
				Algo:         core.Algorithm{Label: regime.name + "/" + mode, Schedule: schedule, Policy: policy},
				Rounds:       o.Rounds,
				ModelFactory: modelFactory(32, 10),
				LR:           o.LR, BatchSize: o.BatchSize, LocalSteps: o.LocalSteps,
				Partition: part, Test: test,
				EvalEvery: o.EvalEvery, EvalSubsample: o.EvalSubsample,
				Devices: devices, Workload: workload,
				Harvest:       fleet,
				DropDeadNodes: drop,
				Seed:          o.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: brownout %s/%s: %w", regime.name, mode, err)
			}
			trained := 0
			for _, tr := range res.TrainedRounds {
				trained += tr
			}
			var liveSum, degSum, compSum float64
			minLive := o.Nodes
			for _, m := range res.History {
				liveSum += float64(m.LiveCount)
				degSum += m.MeanLiveDegree
				compSum += float64(m.LiveComponents)
				if m.LiveCount < minLive {
					minLive = m.LiveCount
				}
			}
			nRounds := float64(len(res.History))
			rows = append(rows, BrownoutRow{
				Regime:        regime.name,
				Mode:          mode,
				FinalAcc:      res.FinalMeanAcc * 100,
				Participation: 100 * float64(trained) / float64(o.Nodes*trainSlots),
				MeanLivePct:   100 * liveSum / (nRounds * float64(o.Nodes)),
				MinLive:       minLive,
				MeanLiveDeg:   degSum / nRounds,
				MeanComps:     compSum / nRounds,
				DroppedSends:  res.TotalDroppedSends,
				DepletedEnd:   res.History[len(res.History)-1].Depleted,
			})
		}
	}

	tb := report.NewTable("Brown-out communication model: routing through dead nodes vs dropping their edges (sim scale)",
		"Regime", "Mode", "Acc %", "Particip %", "Live %", "Min live", "Eff deg", "Components", "Dropped msgs", "Depleted")
	for _, r := range rows {
		tb.AddRowf("%s|%s|%.2f|%.1f|%.1f|%d|%.2f|%.2f|%d|%d",
			r.Regime, r.Mode, r.FinalAcc, r.Participation, r.MeanLivePct,
			r.MinLive, r.MeanLiveDeg, r.MeanComps, r.DroppedSends, r.DepletedEnd)
	}
	tb.Render(o.Out)
	return rows, nil
}
