package experiments

import (
	"fmt"
	"math"

	"repro/internal/harvest"
	"repro/internal/report"
	"repro/internal/sim"
)

// The rejoin scenario table isolates the next modeling decision after
// TableBrownout: what a revived node resumes with. All runs use the
// physical communication model (drop-and-renormalize) on identical fleets,
// seeds, and policies; the only difference between rows of a regime is the
// engine's RejoinRule (sim.Config.Rejoin), so any accuracy gap is
// attributable to rejoin handling alone:
//
//	resume-stale        frozen-at-death parameters (the baseline)
//	restore-checkpoint  freshest aggregated state in the live
//	                    neighborhood (frozen parameters when isolated)
//	catch-up            staleness-discounted blend of the two
//
// Intermittent outages make staleness the dominant error source; the table
// shows how much of it rejoin aggregation buys back per harvest regime.

// RejoinRow summarizes one (regime, rule) rejoin run.
type RejoinRow struct {
	Regime        string  // harvest regime: "diurnal" or "markov"
	Rule          string  // rejoin rule name
	FinalAcc      float64 // final test accuracy, % (readout)
	Model         ModelColumn
	Participation float64 // trained rounds / coordinated training slots, %
	Revivals      int     // rejoin events over the run
	Restores      int     // revivals that replaced the frozen model
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

// rejoinRule returns strategy i of the comparison — the stale baseline,
// the neighborhood restore, then CatchUp at every swept half-life. There
// are 2+len(CatchUpHalfLives).
func rejoinRule(i int) (sim.RejoinRule, error) {
	switch i {
	case 0:
		return sim.ResumeStale{}, nil
	case 1:
		return sim.RestoreCheckpoint{}, nil
	}
	return sim.NewCatchUp(CatchUpHalfLives[i-2])
}

// BestCatchUpHalfLife returns the CatchUp half-life among a regime's rows
// whose readout is best (ties keep the smaller h), or 0 when the regime
// has no catch-up rows — the per-regime tuning answer the sweep exists to
// give.
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
	w := newWorld(o, cifar, PaperDegree)
	rows, err := brownoutGrid(w, 2+len(CatchUpHalfLives), func(regime GammaRegime, arm int) (RejoinRow, error) {
		fail := func(err error) (RejoinRow, error) {
			return RejoinRow{}, fmt.Errorf("experiments: rejoin %s: %w", regime.Name, err)
		}
		rule, err := rejoinRule(arm)
		if err != nil {
			return fail(err)
		}
		cfg, res, err := w.harvestRun(regime.Name+"/"+rule.Name(), regime, rejoinFleetOptions(w.meanTrainWh), func(cfg *sim.Config, _ harvest.Trace) (err error) {
			cfg.DropDeadNodes, cfg.Rejoin = true, rule
			cfg.Algo.Policy, err = harvest.NewSoCThreshold(0.45)
			return err
		})
		if err != nil {
			return fail(err)
		}
		maxStale := 0
		for _, m := range res.History {
			maxStale = max(maxStale, m.MaxStaleness)
		}
		t := tallyRun(cfg, res)
		return RejoinRow{
			Regime:        regime.Name,
			Rule:          rule.Name(),
			FinalAcc:      readout(res, cfg.Algo.Schedule),
			Model:         modelColumn(res),
			Participation: t.participation,
			Revivals:      res.TotalRevivals,
			Restores:      res.TotalRestores,
			MeanStaleness: res.MeanRejoinStaleness(),
			MaxStaleness:  maxStale,
			DeadShare:     t.deadShare,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	tb := report.NewTable("Rejoin after brown-out: what a revived node resumes with (drop-and-renormalize, sim scale)",
		"Regime", "Rejoin rule", "Acc %", modelHeader, "Particip %", "Revivals", "Restores", "Mean stale", "Max stale", "Dead %")
	for _, r := range rows {
		tb.AddRowf("%s|%s|%.2f|%s|%.1f|%d|%d|%.2f|%d|%.1f",
			r.Regime, r.Rule, r.FinalAcc, r.Model, r.Participation, r.Revivals,
			r.Restores, r.MeanStaleness, r.MaxStaleness, r.DeadShare)
	}
	tb.Render(o.Out)
	fmt.Fprintln(o.Out, periodNote(evalSamples(o, testSplit(o))))
	return rows, nil
}
