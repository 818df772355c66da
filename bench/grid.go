package main

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
)

// sizes fixes every workload's scale. fullSizes is the benchmark;
// bench_test.go shrinks it to a smoke.
type sizes struct {
	gridNodes, gridRounds int

	mlpNodes, mlpHidden, mlpRounds int

	sweepNodes, sweepRounds, sweepRequests int

	asyncNodes, asyncTraceRounds, asyncRuns int

	// Set-up repetitions behind setup_s: at least setupMin before the first
	// unit, at most setupMax over the run.
	setupMin, setupMax int

	// units, when > 0, fixes the number of timed units whatever -seconds
	// is; only the smoke test sets it.
	units int

	// Layer probes: repetitions per kernel, and the fleet shapes of the two
	// harvest engine probes.
	probeReps                      int
	pointerNodes, pointerRounds    int
	soaNodes, soaRounds, fleetReps int
}

var fullSizes = sizes{
	gridNodes: 16, gridRounds: 32,
	mlpNodes: 32, mlpHidden: 1024, mlpRounds: 32,
	sweepNodes: 16, sweepRounds: 20, sweepRequests: 250,
	asyncNodes: 64, asyncTraceRounds: 384, asyncRuns: 16,
	setupMin: 5, setupMax: 500,
	probeReps:    20,
	pointerNodes: 1000, pointerRounds: 1000,
	soaNodes: 1_000_000, soaRounds: 24, fleetReps: 3,
}

// world is what every simulation workload's set-up builds: the scaled
// CIFAR-like task split into non-IID shards, a 6-regular topology with
// Metropolis weights, and the device fleet.
type world struct {
	graph   *graph.Graph
	weights *graph.Weights
	part    dataset.Partition
	val     *dataset.Dataset
	devices []energy.Device
}

func buildWorld(nodes, dim, trainPerNode, testSamples int, seed uint64) (*world, error) {
	train, testAll, err := dataset.Generate(dataset.SyntheticConfig{
		Classes: 10, Dim: dim, Train: nodes * trainPerNode, Test: testSamples, Noise: 2.5, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	part, err := dataset.ShardPartition(train, nodes, 2, seed)
	if err != nil {
		return nil, err
	}
	val, _ := testAll.Split(testAll.Len() / 2)
	g, err := graph.Regular(nodes, 6, seed)
	if err != nil {
		return nil, err
	}
	return &world{
		graph: g, weights: graph.Metropolis(g),
		part: part, val: val,
		devices: energy.AssignDevices(nodes, energy.Devices()),
	}, nil
}

// gridCold is the grid users wait on: every unit is one
// experiments.TableGammaHarvest call — 5 regimes × 16 fresh
// harvest-coupled sim.Run cells — with no sweep cache attached and its
// rendering discarded.
type gridCold struct {
	opt experiments.Options
	w   *world // the last set-up; the table builds its own copy
}

func newGridCold(sz sizes, seed uint64) *gridCold {
	return &gridCold{opt: experiments.Options{Nodes: sz.gridNodes, Rounds: sz.gridRounds, Seed: seed}}
}

func (g *gridCold) name() string { return "grid_cold" }

func (g *gridCold) setUp() (err error) {
	o := g.opt.Defaults()
	g.w, err = buildWorld(o.Nodes, 32, o.TrainPerNode, o.TestSamples, o.Seed)
	return err
}

func (g *gridCold) close() error { g.w = nil; return nil }

func (g *gridCold) unit(tr *tracer) (unitResult, error) {
	o := g.opt
	o.Probe = tr.probe("experiments") // one cell span per completed cell
	var r unitResult
	table := tr.begin("experiments.table")
	rows, err := experiments.TableGammaHarvest(o)
	tr.end(table)
	if err != nil {
		return r, err
	}
	if err := checkGridRows(rows); err != nil {
		return r, err
	}
	var d digester
	r.work = float64(len(rows) * 16 * o.Nodes * o.Rounds)
	for _, row := range rows {
		b := row.Best
		d.str(row.Regime)
		d.str(row.Trace)
		d.ints(b.GammaTrain, b.GammaSync)
		d.f64(b.FinalAcc, b.Participation, b.HarvestedWh, b.ConsumedWh, b.WastedWh, b.WastedFrac)
		r.acc += b.FinalAcc / float64(len(rows))
		// Printed, not asserted: the best Γ may move with the seed.
		r.notes = append(r.notes, fmt.Sprintf("best Γ under %s: (%d,%d)", row.Regime, b.GammaTrain, b.GammaSync))
	}
	r.digest = d.sum()
	return r, nil
}

// checkGridRows holds the table to the invariants that are true at any
// seed: one row per regime, fractions in range, and harvest present
// exactly where a trace supplies it.
func checkGridRows(rows []experiments.GammaHarvestRow) error {
	if len(rows) != 5 {
		return fmt.Errorf("grid_cold: %d regime rows, want 5", len(rows))
	}
	for _, row := range rows {
		b := row.Best
		switch {
		case !(b.WastedFrac >= 0 && b.WastedFrac <= 1):
			return fmt.Errorf("grid_cold: %s wasted fraction %v outside [0,1]", row.Regime, b.WastedFrac)
		case !(b.Participation >= 0 && b.Participation <= 100):
			return fmt.Errorf("grid_cold: %s participation %v%% outside [0,100]", row.Regime, b.Participation)
		case !(b.FinalAcc > 0 && b.FinalAcc <= 100):
			return fmt.Errorf("grid_cold: %s accuracy %v%% outside (0,100]", row.Regime, b.FinalAcc)
		case row.Regime == "fixed-budget" && b.HarvestedWh != 0:
			return fmt.Errorf("grid_cold: fixed-budget harvested %v Wh, want 0", b.HarvestedWh)
		case row.Regime != "fixed-budget" && !(b.HarvestedWh > 0):
			return fmt.Errorf("grid_cold: %s harvested %v Wh, want > 0", row.Regime, b.HarvestedWh)
		}
	}
	return nil
}

func (g *gridCold) layers(tr *tracer, m metrics) {
	cells := tr.durations(g.name(), "experiments.cell")
	tables := tr.durations(g.name(), "experiments.table")
	m.set("experiments.cells", float64(len(cells))/float64(len(tables)))
	m.set("experiments.cell_ms_p50", quantile(cells, 0.5)/1e6)
	m.set("experiments.cell_ms_max", slices.Max(cells)/1e6)
	// What a unit spends outside its cells: world builds, trace sampling,
	// best-cell selection and the fan-out.
	m.set("experiments.grid_self_share", 1-sum(cells)/sum(tables))
}

// probeCell runs one diurnal-lo Γ(1,3) cell the way the grid runner does
// (fresh pointer fleet, SoC-threshold policy, LogReg 32→10) with the
// engine's probe attached, which the grid itself never does for its
// cells: its round and phase spans attribute a cell's time to a phase.
func (g *gridCold) probeCell(tr *tracer) error {
	o := g.opt.Defaults()
	w, err := buildWorld(o.Nodes, 32, o.TrainPerNode, o.TestSamples, o.Seed)
	if err != nil {
		return err
	}
	workload := energy.CIFAR10Workload()
	mean := energy.NetworkRoundWh(o.Nodes, energy.Devices(), workload) / float64(o.Nodes)
	period := min(max(o.Rounds/2, 2), 24)
	trace, err := harvest.NewDiurnal(0.7*mean, period, harvest.LongitudePhase(o.Nodes))
	if err != nil {
		return err
	}
	fleet, err := harvest.NewFleet(w.devices, workload, trace, harvest.Options{CapacityRounds: 12, InitialSoC: 0.75})
	if err != nil {
		return err
	}
	policy, err := harvest.NewSoCThreshold(0.2)
	if err != nil {
		return err
	}
	gamma, err := core.NewGamma(1, 3)
	if err != nil {
		return err
	}
	id := tr.begin("sim.run")
	_, err = sim.Run(sim.Config{
		Graph: w.graph, Weights: w.weights,
		Algo:         core.Algorithm{Label: "probe-cell", Schedule: gamma, Policy: policy},
		Rounds:       o.Rounds,
		ModelFactory: func(_ int, r *rng.RNG) *nn.Network { return nn.LogisticRegression(32, 10, r) },
		LR:           o.LR, BatchSize: o.BatchSize, LocalSteps: o.LocalSteps,
		Partition: w.part, Test: w.val,
		EvalSubsample: o.EvalSubsample,
		Devices:       w.devices, Workload: workload,
		Harvest: fleet,
		Probe:   tr.probe("sim"),
		Seed:    o.Seed,
	})
	tr.end(id)
	return err
}

// simPhases lists the round phases a probed sim.Run can report.
var simPhases = []string{"liveset", "train", "share", "aggregate", "battery", "eval"}

// simLayers attributes a probed run's round time to its phases; what no
// phase covers (scheduling, metrics, telemetry) is the engine's self share.
func simLayers(tr *tracer, workload string, m metrics) {
	rounds := tr.durations(workload, "sim.round")
	total := sum(rounds)
	for _, ph := range simPhases {
		m.set("sim."+ph+"_share", tr.total(workload, "sim."+ph)/total)
	}
	m.set("sim.self_share", tr.self(workload, "sim.round")/total)
	m.set("sim.round_us", total/float64(len(rounds))/1e3)
}
