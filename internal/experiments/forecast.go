package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
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
	FinalAcc      float64 // mean final test accuracy, %
	Participation float64 // trained rounds / coordinated training slots, %
	DeadShare     float64 // mean share of the fleet below cutoff, %
	WastedWh      float64 // harvest that arrived on full batteries (sim scale)
}

// forecastReserveSoC is the HorizonPlan safety margin shared by every MPC
// row: the planned trajectory keeps this much capacity above the cutoff.
const forecastReserveSoC = 0.05

// forecastFleetOptions mirrors the brown-out world — supercap capacity, a
// real cutoff, always-on idle draw — so surviving the forecast trough is
// what the planner's lookahead is for.
func forecastFleetOptions(meanTrainWh float64) harvest.Options {
	return harvest.Options{
		CapacityRounds: 10,
		InitialSoC:     0.6,
		CutoffSoC:      0.25,
		IdleWh:         0.2 * meanTrainWh,
	}
}

// forecastArm is one policy family of the comparison. Arms without a
// forecaster run the reactive baselines; MPC arms share one HorizonPlan
// configuration and differ only in what feeds their forecast window.
type forecastArm struct {
	name       string
	horizon    func(o Options) int // forecast window; 0 = no forecaster
	forecaster func(o Options, trace harvest.Trace, horizon int) (harvest.Forecaster, error)
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
	oracle := func(_ Options, trace harvest.Trace, _ int) (harvest.Forecaster, error) {
		return harvest.NewOracle(trace)
	}
	persistence := func(o Options, _ harvest.Trace, _ int) (harvest.Forecaster, error) {
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
	var rows []ForecastRow
	for _, regime := range brownoutRegimes(o, meanTrainWh) {
		for _, arm := range forecastArms() {
			fail := func(err error) ([]ForecastRow, error) {
				return nil, fmt.Errorf("experiments: forecast %s/%s: %w", regime.name, arm.name, err)
			}
			trace, err := regime.trace()
			if err != nil {
				return fail(err)
			}
			fleet, err := harvest.NewFleet(devices, workload, trace, forecastFleetOptions(meanTrainWh))
			if err != nil {
				return fail(err)
			}
			policy, err := arm.policy()
			if err != nil {
				return fail(err)
			}
			horizon := 0
			var forecaster harvest.Forecaster
			if arm.forecaster != nil {
				horizon = arm.horizon(o)
				if forecaster, err = arm.forecaster(o, trace, horizon); err != nil {
					return fail(err)
				}
			}
			res, err := sim.Run(sim.Config{
				Graph: g, Weights: weights,
				Algo:         core.Algorithm{Label: regime.name + "/" + arm.name, Schedule: schedule, Policy: policy},
				Rounds:       o.Rounds,
				ModelFactory: modelFactory(32, 10),
				LR:           o.LR, BatchSize: o.BatchSize, LocalSteps: o.LocalSteps,
				Partition: part, Test: test,
				EvalEvery: o.EvalEvery, EvalSubsample: o.EvalSubsample,
				Devices: devices, Workload: workload,
				Harvest:         fleet,
				Forecast:        forecaster,
				ForecastHorizon: horizon,
				DropDeadNodes:   true,
				Seed:            o.Seed,
			})
			if err != nil {
				return fail(err)
			}
			trained := 0
			for _, tr := range res.TrainedRounds {
				trained += tr
			}
			var deadSum float64
			for _, m := range res.History {
				deadSum += float64(m.Depleted)
			}
			fname := "-"
			if forecaster != nil {
				fname = forecaster.Name()
			}
			rows = append(rows, ForecastRow{
				Regime:        regime.name,
				Policy:        arm.name,
				Forecaster:    fname,
				Horizon:       horizon,
				FinalAcc:      res.FinalMeanAcc * 100,
				Participation: 100 * float64(trained) / float64(o.Nodes*trainSlots),
				DeadShare:     100 * deadSum / (float64(len(res.History)) * float64(o.Nodes)),
				WastedWh:      res.TotalWastedWh,
			})
		}
	}

	tb := report.NewTable("Forecast-aware participation: MPC planning vs reactive SoC rules (drop-and-renormalize, sim scale)",
		"Regime", "Policy", "Forecaster", "Window", "Acc %", "Particip %", "Dead %", "Wasted Wh")
	for _, r := range rows {
		window := "-"
		if r.Horizon > 0 {
			window = fmt.Sprintf("%d", r.Horizon)
		}
		tb.AddRowf("%s|%s|%s|%s|%.2f|%.1f|%.1f|%.4f",
			r.Regime, r.Policy, r.Forecaster, window, r.FinalAcc,
			r.Participation, r.DeadShare, r.WastedWh)
	}
	tb.Render(o.Out)
	return rows, nil
}

// ForecastRowFor returns the row of a (regime, policy) pair, and whether it
// exists — the lookup the acceptance pins use.
func ForecastRowFor(rows []ForecastRow, regime, policy string) (ForecastRow, bool) {
	for _, r := range rows {
		if r.Regime == regime && r.Policy == policy {
			return r, true
		}
	}
	return ForecastRow{}, false
}
