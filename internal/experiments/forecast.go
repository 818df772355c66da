package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/harvest"
	"repro/internal/report"
	"repro/internal/sim"
)

// The forecast table answers the ROADMAP's charge-forecasting question: on
// identical fleets, seeds, and harvest regimes, does a policy that plans
// against a forecast of its own trace beat the reactive SoC rules, and how
// much of that gain survives when the forecast is merely learned
// (persistence: tomorrow ≈ today) rather than perfect (oracle)? The
// offline-optimal row — the oracle planning over the entire remaining
// horizon — bounds what any forecast length can buy. All runs use the
// physical brown-out model (drop-and-renormalize), so conserving charge
// through a forecast trough keeps a node's radio on while the reactive
// rules brown out.

// ForecastRow summarizes one (regime, policy) forecast run.
type ForecastRow struct {
	Regime        string  // harvest regime: "diurnal" or "markov"
	Policy        string  // row label (policy family)
	Forecaster    string  // forecaster identity, "-" for forecast-free rows
	Horizon       int     // forecast window in rounds (0 = none)
	FinalAcc      float64 // final test accuracy, % (readout)
	Model         ModelColumn
	Participation float64 // trained rounds / coordinated training slots, %
	DeadShare     float64 // mean share of the fleet below cutoff, %
	WastedWh      float64 // harvest that arrived on full batteries (sim scale)
}

// forecastReserveSoC is the HorizonPlan safety margin shared by every MPC
// row: the planned trajectory keeps this much capacity above the cutoff.
const forecastReserveSoC = 0.05

// forecastArm is one policy family of the comparison. Arms without a
// forecaster run the reactive baselines; MPC arms share one HorizonPlan
// configuration and differ only in what feeds their forecast window.
type forecastArm struct {
	name       string
	horizon    func(o Options) int // forecast window; 0 = no forecaster
	forecaster func(o Options, trace harvest.Trace) (harvest.Forecaster, error)
	policy     func() (core.Policy, error)
}

// forecastArms returns the comparison, ordered from reactive to
// fully-informed: the SoC baselines, then persistence-MPC (a forecast any
// deployment can compute), oracle-MPC (perfect one-day lookahead), and
// offline-optimal (perfect whole-horizon lookahead).
func forecastArms() []forecastArm {
	day := func(o Options) int { return diurnalPeriod(o.Rounds) }
	full := func(o Options) int { return o.Rounds }
	mpc := func() (core.Policy, error) { return harvest.NewHorizonPlan(forecastReserveSoC) }
	oracle := func(_ Options, trace harvest.Trace) (harvest.Forecaster, error) {
		return harvest.NewOracle(trace)
	}
	persistence := func(o Options, _ harvest.Trace) (harvest.Forecaster, error) {
		return harvest.NewPersistence(o.Nodes, diurnalPeriod(o.Rounds))
	}
	return []forecastArm{
		{name: "soc-threshold", policy: func() (core.Policy, error) { return harvest.NewSoCThreshold(0.35) }},
		{name: "soc-proportional", policy: func() (core.Policy, error) { return harvest.NewSoCProportional(1) }},
		{name: "persistence-mpc", horizon: day, forecaster: persistence, policy: mpc},
		{name: "oracle-mpc", horizon: day, forecaster: oracle, policy: mpc},
		{name: "offline-optimal", horizon: full, forecaster: oracle, policy: mpc},
	}
}

// TableForecast runs the forecast-aware participation comparison — every
// arm against every shared brown-out regime — and renders the table. Every
// cell is a fresh-fleet, fresh-forecaster run; rows are bit-identical at
// any GOMAXPROCS.
func TableForecast(o Options) ([]ForecastRow, error) {
	o = o.Defaults()
	w := newWorld(o, cifar, PaperDegree)
	arms := forecastArms()
	rows, err := brownoutGrid(w, len(arms), func(regime GammaRegime, i int) (ForecastRow, error) {
		arm := arms[i]
		// The fleet mirrors the brown-out world — supercap capacity, a
		// real cutoff, always-on idle draw — so surviving the forecast
		// trough is what the planner's lookahead is for.
		cfg, res, err := w.harvestRun(regime.Name+"/"+arm.name, regime, brownoutFleetOptions(w.MeanTrainWh), func(cfg *sim.Config, trace harvest.Trace) (err error) {
			cfg.DropDeadNodes = true
			if cfg.Algo.Policy, err = arm.policy(); err != nil || arm.forecaster == nil {
				return err
			}
			cfg.ForecastHorizon = arm.horizon(o)
			cfg.Forecast, err = arm.forecaster(o, trace)
			return err
		})
		if err != nil {
			return ForecastRow{}, fmt.Errorf("experiments: forecast %s/%s: %w", regime.Name, arm.name, err)
		}
		fname := "-"
		if cfg.Forecast != nil {
			fname = cfg.Forecast.Name()
		}
		t := tallyRun(cfg, res)
		return ForecastRow{
			Regime:        regime.Name,
			Policy:        arm.name,
			Forecaster:    fname,
			Horizon:       cfg.ForecastHorizon,
			FinalAcc:      Readout(res, cfg.Algo.Schedule),
			Model:         ModelColumnOf(res),
			Participation: t.participation,
			DeadShare:     t.deadShare,
			WastedWh:      res.TotalWastedWh,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	tb := report.NewTable("Forecast-aware participation: MPC planning vs reactive SoC rules (drop-and-renormalize, sim scale)",
		"Regime", "Policy", "Forecaster", "Window", "Acc %", modelHeader, "Particip %", "Dead %", "Wasted Wh")
	for _, r := range rows {
		window := "-"
		if r.Horizon > 0 {
			window = strconv.Itoa(r.Horizon)
		}
		tb.AddRowf("%s|%s|%s|%s|%.2f|%s|%.1f|%.1f|%.4f",
			r.Regime, r.Policy, r.Forecaster, window, r.FinalAcc, r.Model,
			r.Participation, r.DeadShare, r.WastedWh)
	}
	tb.Render(o.Out)
	fmt.Fprintln(o.Out, periodNote(evalSamples(o, testSplit(o))))
	return rows, nil
}
