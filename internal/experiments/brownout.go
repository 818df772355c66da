package experiments

import (
	"fmt"

	"repro/internal/harvest"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
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
	FinalAcc      float64 // final test accuracy, % (readout)
	Model         ModelColumn
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

// brownoutGrid runs arms 0..arms-1 of a table under each of the two
// standard regimes of the brown-out experiment family, regime-major,
// through one fan-out. TableBrownout, TableRejoin, TableForecast and
// TableAsyncHarvest all run on it, so all compare over identical fleets:
// diurnal/solar (regular, predictable outages sweeping the fleet) and
// bursty Markov (irregular outages of random length).
func brownoutGrid[R any](w *World, arms int, run func(regime GammaRegime, arm int) (R, error)) ([]R, error) {
	regimes := []GammaRegime{diurnalRegime("diurnal", 1.2), markovRegime("markov", 1.4, 0.25, 0.35)}
	return sweep.Grid(w.o.Sweep, len(regimes)*arms, nil, func(i int) (R, error) {
		return run(regimes[i/arms], i%arms)
	})
}

// TableBrownout runs the 2x2 brown-out comparison (harvest regime x
// dead-node communication model) and renders the table. Every cell is
// bit-reproducible: all stochastic state is per-node and the live set is
// snapshotted once per round, so rows are identical at any GOMAXPROCS.
func TableBrownout(o Options) ([]BrownoutRow, error) {
	o = o.Defaults()
	w := newWorld(o, cifar, PaperDegree)
	modes := []string{"route-through-dead", "drop-and-renormalize"}
	rows, err := brownoutGrid(w, len(modes), func(regime GammaRegime, arm int) (BrownoutRow, error) {
		mode := modes[arm]
		cfg, res, err := w.harvestRun(regime.Name+"/"+mode, regime, brownoutFleetOptions(w.MeanTrainWh), func(cfg *sim.Config, _ harvest.Trace) (err error) {
			cfg.DropDeadNodes = mode == "drop-and-renormalize"
			cfg.Algo.Policy, err = harvest.NewSoCThreshold(0.35)
			return err
		})
		if err != nil {
			return BrownoutRow{}, fmt.Errorf("experiments: brownout %s/%s: %w", regime.Name, mode, err)
		}
		var liveSum, degSum, compSum float64
		minLive := o.Nodes
		for _, m := range res.History {
			liveSum += float64(m.LiveCount)
			degSum += m.MeanLiveDegree
			compSum += float64(m.LiveComponents)
			minLive = min(minLive, m.LiveCount)
		}
		nRounds := float64(len(res.History))
		return BrownoutRow{
			Regime:        regime.Name,
			Mode:          mode,
			FinalAcc:      Readout(res, cfg.Algo.Schedule),
			Model:         ModelColumnOf(res),
			Participation: tallyRun(cfg, res).participation,
			MeanLivePct:   100 * liveSum / (nRounds * float64(o.Nodes)),
			MinLive:       minLive,
			MeanLiveDeg:   degSum / nRounds,
			MeanComps:     compSum / nRounds,
			DroppedSends:  res.TotalDroppedSends,
			DepletedEnd:   res.History[len(res.History)-1].Depleted,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	tb := report.NewTable("Brown-out communication model: routing through dead nodes vs dropping their edges (sim scale)",
		"Regime", "Mode", "Acc %", modelHeader, "Particip %", "Live %", "Min live", "Eff deg", "Components", "Dropped msgs", "Depleted")
	for _, r := range rows {
		tb.AddRowf("%s|%s|%.2f|%s|%.1f|%.1f|%d|%.2f|%.2f|%d|%d",
			r.Regime, r.Mode, r.FinalAcc, r.Model, r.Participation, r.MeanLivePct,
			r.MinLive, r.MeanLiveDeg, r.MeanComps, r.DroppedSends, r.DepletedEnd)
	}
	tb.Render(o.Out)
	fmt.Fprintln(o.Out, periodNote(evalSamples(o, testSplit(o))))
	return rows, nil
}
