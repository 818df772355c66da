package experiments

import (
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/harvest"
	"repro/internal/report"
	"repro/internal/sim"
)

// The rejoin scenario table isolates the next modeling decision after
// TableBrownout: what a revived node resumes with. All runs use the
// physical communication model (drop-and-renormalize) on identical fleets,
// seeds, and policies; the only difference between rows of a regime is the
// checkpoint subsystem's RejoinRule, so any accuracy gap is attributable to
// rejoin handling alone:
//
//	resume-stale        frozen-at-death parameters (the baseline)
//	restore-checkpoint  freshest aggregated snapshot in the live
//	                    neighborhood (own snapshot when isolated)
//	catch-up            staleness-discounted blend of the two
//
// Intermittent outages make staleness the dominant error source; the table
// shows how much of it rejoin aggregation buys back per harvest regime.

// RejoinRow summarizes one (regime, rule) rejoin run.
type RejoinRow struct {
	Regime        string  // harvest regime: "diurnal" or "markov"
	Rule          string  // rejoin rule name
	FinalAcc      float64 // mean final test accuracy, %
	Participation float64 // trained rounds / coordinated training slots, %
	Revivals      int     // rejoin events over the run
	Restores      int     // revivals that replaced stale in-RAM state
	MeanStaleness float64 // mean rounds-missed per revival
	MaxStaleness  int     // worst staleness seen in any revival
	DeadShare     float64 // mean share of the fleet below cutoff, %
}

// rejoinFleetOptions is brownoutFleetOptions pushed into the regime where
// rejoin handling actually binds: a higher cutoff and heavier idle draw
// lengthen the outages, so a revived node's parameters are several rounds
// stale. Short outages (the TableBrownout setting) leave so little
// staleness that all rejoin rules coincide.
func rejoinFleetOptions(meanTrainWh float64) harvest.Options {
	o := brownoutFleetOptions(meanTrainWh)
	o.CutoffSoC = 0.35
	o.IdleWh = 0.3 * meanTrainWh
	return o
}

// CatchUpHalfLives is the swept half-life grid of the rejoin table: how
// many rounds of staleness it takes for CatchUp to trust its own snapshot
// and its neighborhood equally. The grid brackets the former fixed default
// (h = 2) so the sweep shows which way each regime's outage-length
// distribution pulls the blend.
var CatchUpHalfLives = []float64{1, 2, 4}

// rejoinRules returns the strategies under comparison — the stale baseline,
// the neighborhood restore, and CatchUp at every swept half-life — rebuilt
// per run so no state leaks between cells.
func rejoinRules() ([]checkpoint.RejoinRule, error) {
	rules := []checkpoint.RejoinRule{
		checkpoint.ResumeStale{},
		checkpoint.RestoreCheckpoint{},
	}
	for _, h := range CatchUpHalfLives {
		catchUp, err := checkpoint.NewCatchUp(h)
		if err != nil {
			return nil, err
		}
		rules = append(rules, catchUp)
	}
	return rules, nil
}

// BestCatchUpHalfLife returns the accuracy-maximal CatchUp half-life among
// a regime's rows (ties keep the smaller h), or 0 when the regime has no
// catch-up rows — the per-regime tuning answer the sweep exists to give.
func BestCatchUpHalfLife(rows []RejoinRow, regime string) float64 {
	best, bestAcc := 0.0, math.Inf(-1)
	for _, h := range CatchUpHalfLives {
		name := fmt.Sprintf("catch-up(h=%g)", h)
		for _, r := range rows {
			if r.Regime == regime && r.Rule == name && r.FinalAcc > bestAcc {
				best, bestAcc = h, r.FinalAcc
			}
		}
	}
	return best
}

// TableRejoin runs the rejoin comparison (harvest regime x rejoin rule,
// with CatchUp swept over CatchUpHalfLives) and renders the table. Every
// cell is bit-reproducible at any GOMAXPROCS: rejoins are computed from
// the frozen start-of-round state in node order.
func TableRejoin(o Options) ([]RejoinRow, error) {
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

	schedule := core.AllTrain{}
	trainSlots := core.CountTrainRounds(schedule, o.Rounds)
	var rows []RejoinRow
	for _, regime := range brownoutRegimes(o, meanTrainWh) {
		rules, err := rejoinRules()
		if err != nil {
			return nil, err
		}
		for _, rule := range rules {
			trace, err := regime.trace()
			if err != nil {
				return nil, fmt.Errorf("experiments: rejoin %s: %w", regime.name, err)
			}
			fleet, err := harvest.NewFleet(devices, workload, trace, rejoinFleetOptions(meanTrainWh))
			if err != nil {
				return nil, fmt.Errorf("experiments: rejoin %s: %w", regime.name, err)
			}
			policy, err := harvest.NewSoCThreshold(0.45)
			if err != nil {
				return nil, fmt.Errorf("experiments: rejoin %s: %w", regime.name, err)
			}
			mgr, err := checkpoint.NewManager(o.Nodes, nil, rule)
			if err != nil {
				return nil, fmt.Errorf("experiments: rejoin %s: %w", regime.name, err)
			}
			res, err := sim.Run(sim.Config{
				Graph: g, Weights: weights,
				Algo:         core.Algorithm{Label: regime.name + "/" + rule.Name(), Schedule: schedule, Policy: policy},
				Rounds:       o.Rounds,
				ModelFactory: modelFactory(32, 10),
				LR:           o.LR, BatchSize: o.BatchSize, LocalSteps: o.LocalSteps,
				Partition: part, Test: test,
				EvalEvery: o.EvalEvery, EvalSubsample: o.EvalSubsample,
				Devices: devices, Workload: workload,
				Harvest:       fleet,
				DropDeadNodes: true,
				Checkpoint:    mgr,
				Seed:          o.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: rejoin %s/%s: %w", regime.name, rule.Name(), err)
			}
			trained := 0
			for _, tr := range res.TrainedRounds {
				trained += tr
			}
			var deadSum float64
			maxStale := 0
			for _, m := range res.History {
				deadSum += float64(m.Depleted)
				if m.MaxStaleness > maxStale {
					maxStale = m.MaxStaleness
				}
			}
			rows = append(rows, RejoinRow{
				Regime:        regime.name,
				Rule:          rule.Name(),
				FinalAcc:      res.FinalMeanAcc * 100,
				Participation: 100 * float64(trained) / float64(o.Nodes*trainSlots),
				Revivals:      res.TotalRevivals,
				Restores:      res.TotalRestores,
				MeanStaleness: res.MeanRejoinStaleness(),
				MaxStaleness:  maxStale,
				DeadShare:     100 * deadSum / (float64(len(res.History)) * float64(o.Nodes)),
			})
		}
	}

	tb := report.NewTable("Rejoin after brown-out: what a revived node resumes with (drop-and-renormalize, sim scale)",
		"Regime", "Rejoin rule", "Acc %", "Particip %", "Revivals", "Restores", "Mean stale", "Max stale", "Dead %")
	for _, r := range rows {
		tb.AddRowf("%s|%s|%.2f|%.1f|%d|%d|%.2f|%d|%.1f",
			r.Regime, r.Rule, r.FinalAcc, r.Participation, r.Revivals,
			r.Restores, r.MeanStaleness, r.MaxStaleness, r.DeadShare)
	}
	tb.Render(o.Out)
	return rows, nil
}
