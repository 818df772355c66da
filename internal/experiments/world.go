package experiments

import (
	"fmt"
	"sync"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Every run that trains — a table's, a figure's, or a single run of
// cmd/skiptrain — draws its inputs from one World and its
// run configuration from World.Config (World.AsyncConfig on the
// event-driven engine), and an experiment with more than one run takes —
// its fan-out from sweep.Grid over o.Sweep: each run writes its own
// preallocated slot, the lowest-index error is the one reported, and the
// results are bit-identical at any GOMAXPROCS. Only the Γ grids key their
// cells (gammagrid.go); every other run passes the zero key and is
// computed fresh.

// datasetSpec is one dataset's scaled stand-in and the paper setting it
// stands for.
type datasetSpec struct {
	name        string
	classes     int
	workload    energy.Workload
	paperRounds int
	budgetShare float64 // battery share of the constrained setting (Table 2)
	build       func(Options) (part dataset.Partition, val, test *dataset.Dataset, err error)
	// model is every run's ModelFactory: logistic regression over the
	// 32-dimensional inputs onto the classes.
	model func(node int, r *rng.RNG) *nn.Network
}

var (
	cifar = datasetSpec{"cifar", 10, energy.CIFAR10Workload(), PaperRoundsCIFAR, 0.10, cifarLikeData,
		func(_ int, r *rng.RNG) *nn.Network { return nn.LogisticRegression(32, 10, r) }}
	femnist = datasetSpec{"femnist", 62, energy.FEMNISTWorkload(), PaperRoundsFEMNIST, 0.50, femnistLikeData,
		func(_ int, r *rng.RNG) *nn.Network { return nn.LogisticRegression(32, 62, r) }}
	// datasetSpecs looks the datasets up by name.
	datasetSpecs = map[string]datasetSpec{cifar.name: cifar, femnist.name: femnist}
)

// World is what the runs of one experiment share on one d-regular
// topology: the graph, built by the first run that needs it, and the data
// and device assignment, likewise — and shared with every other degree's
// world made by at. Everything is read-only once built, so runs fan out
// over it freely, and a run that is served from a cache builds neither.
type World struct {
	o           Options
	ds          datasetSpec
	degree      int
	MeanTrainWh float64 // a node's mean per-round training cost, the unit of trace magnitudes
	data        func() (*worldData, error)

	topologyOnce sync.Once
	graph        *graph.Graph
	weights      *graph.Weights
	topologyErr  error
}

// worldData is what the worlds of one dataset share: the data, the device
// assignment, and the free list of the engines their runs share
// (World.run), which holds as many as ran at once.
type worldData struct {
	part      dataset.Partition
	val, test *dataset.Dataset
	devices   []energy.Device

	enginesMu sync.Mutex
	engines   []*sim.Engine
}

// NewWorld is the named dataset's world ("cifar" or "femnist") on the
// d-regular topology. o must be completed by Defaults; a single run whose
// seed 0 or -eval 0 means 0 sets Seed and EvalEvery after it.
func NewWorld(o Options, dataset string, degree int) (*World, error) {
	ds, ok := datasetSpecs[dataset]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown dataset %q", dataset)
	}
	return newWorld(o, ds, degree), nil
}

func newWorld(o Options, ds datasetSpec, degree int) *World {
	return &World{
		o: o, ds: ds, degree: degree,
		MeanTrainWh: energy.NetworkRoundWh(o.Nodes, energy.Devices(), ds.workload) / float64(o.Nodes),
		data: sync.OnceValues(func() (*worldData, error) {
			if o.Nodes < 0 {
				return nil, fmt.Errorf("experiments: negative node count %d", o.Nodes)
			}
			part, val, test, err := ds.build(o)
			if err != nil {
				return nil, err
			}
			return &worldData{part: part, val: val, test: test, devices: energy.AssignDevices(o.Nodes, energy.Devices())}, nil
		}),
	}
}

// at is the world on another degree: its own topology, the same data.
func (w *World) at(degree int) *World {
	return &World{o: w.o, ds: w.ds, degree: degree, MeanTrainWh: w.MeanTrainWh, data: w.data}
}

func (w *World) buildTopology() error {
	w.topologyOnce.Do(func() {
		g, err := graph.Regular(w.o.Nodes, w.degree, w.o.Seed)
		if err != nil {
			w.topologyErr = err
			return
		}
		w.graph, w.weights = g, graph.Metropolis(g)
	})
	return w.topologyErr
}

// Config is the sim.Config of one run of algo on w, evaluated on the test
// split every o.EvalEvery rounds and over the readout's window: the nodes,
// and the averaged model and consensus distance the secondary column
// prints. The caller sets only what its arms vary: the fleet,
// DropDeadNodes, Rejoin, Forecast or Probe.
func (w *World) Config(algo core.Algorithm) (sim.Config, error) {
	d, err := w.data()
	if err != nil {
		return sim.Config{}, err
	}
	if err := w.buildTopology(); err != nil {
		return sim.Config{}, err
	}
	o := w.o
	return sim.Config{
		Graph: w.graph, Weights: w.weights,
		Algo:         algo,
		Rounds:       o.Rounds,
		ModelFactory: w.ds.model,
		LR:           o.LR, BatchSize: o.BatchSize, LocalSteps: o.LocalSteps,
		Partition: d.part, Test: d.test,
		EvalEvery: o.EvalEvery, EvalSubsample: o.EvalSubsample, EvalGlobalModel: true,
		Devices: d.devices, Workload: w.ds.workload,
		Seed: o.Seed,
	}, nil
}

// tuneConfig is Config evaluated over the readout's window only, on the
// validation split: how Figure 3 and the harvest grids choose Γ.
func (w *World) tuneConfig(algo core.Algorithm) (sim.Config, error) {
	cfg, err := w.Config(algo)
	if err == nil {
		d, _ := w.data() // built by config
		cfg.Test, cfg.EvalEvery = d.val, 0
	}
	return cfg, err
}

// fleet puts cfg on a fresh fleet — regime's trace, built for this run,
// charging batteries shaped by opts — and returns the trace.
func (w *World) fleet(cfg *sim.Config, regime GammaRegime, opts harvest.Options) (harvest.Trace, error) {
	trace, err := regime.Trace(w.o, w.MeanTrainWh)
	if err != nil {
		return nil, err
	}
	cfg.Harvest, err = harvest.NewFleet(cfg.Devices, cfg.Workload, trace, opts)
	return trace, err
}

// run executes cfg, a Config of w's, on an engine from the free list its
// data keeps, or a new one when the list is empty, and puts the engine
// back: the cells of a grid share one engine per worker, so a cell after
// the first of its shape builds no node state, and a grid served from a
// cache, which builds no data, makes no engine. Every sim run of the
// experiments goes through here.
func (w *World) run(cfg sim.Config) (*sim.Result, error) {
	d, err := w.data()
	if err != nil {
		return nil, err
	}
	var e *sim.Engine
	d.enginesMu.Lock()
	if k := len(d.engines); k > 0 {
		e, d.engines = d.engines[k-1], d.engines[:k-1]
	}
	d.enginesMu.Unlock()
	if e == nil {
		e = new(sim.Engine)
	}
	res, err := e.Run(cfg)
	d.enginesMu.Lock()
	d.engines = append(d.engines, e)
	d.enginesMu.Unlock()
	return res, err
}

// harvestRun is one run of a harvest table: label training every round
// on a fresh fleet of regime's trace shaped by opts. set fills in what the
// arm varies — the policy always, and any of DropDeadNodes, Rejoin or
// a forecaster of the run's trace.
func (w *World) harvestRun(label string, regime GammaRegime, opts harvest.Options, set func(*sim.Config, harvest.Trace) error) (sim.Config, *sim.Result, error) {
	cfg, err := w.Config(core.Algorithm{Label: label, Schedule: core.AllTrain{}})
	if err != nil {
		return cfg, nil, err
	}
	trace, err := w.fleet(&cfg, regime, opts)
	if err == nil {
		err = set(&cfg, trace)
	}
	if err != nil {
		return cfg, nil, err
	}
	res, err := w.run(cfg)
	return cfg, res, err
}

// Budgets are w's per-node round budgets of the constrained setting,
// scaled to the simulated horizon.
func (w *World) Budgets() []int {
	return scaledBudgets(w.o.Nodes, w.o.Rounds, w.ds.paperRounds, w.ds.workload, w.ds.budgetShare)
}

// AsyncConfig is Config(algo) on the event-driven engine: the horizon
// spans o.Rounds trace rounds of the fleet-mean step duration, evaluated
// every o.EvalEvery of them, and the batteries, shaped by fleet, charge
// from trace (nil: no batteries). The caller sets Forecast or Probe.
func (w *World) AsyncConfig(algo core.Algorithm, trace harvest.Trace, fleet harvest.Options) (async.Config, error) {
	cfg, err := w.Config(algo)
	if err != nil {
		return async.Config{}, err
	}
	step := energy.MeanTrainRoundSeconds(cfg.Devices, cfg.Workload)
	return async.Config{
		Graph: cfg.Graph, Algo: algo,
		Horizon:      float64(cfg.Rounds) * step,
		ModelFactory: cfg.ModelFactory,
		LR:           cfg.LR, BatchSize: cfg.BatchSize, LocalSteps: cfg.LocalSteps,
		Partition: cfg.Partition, Test: cfg.Test,
		Devices: cfg.Devices, Workload: cfg.Workload,
		Trace: trace, FleetOptions: fleet, RoundSeconds: step,
		EvalEverySeconds: float64(cfg.EvalEvery) * step,
		EvalSubsample:    cfg.EvalSubsample,
		Seed:             cfg.Seed,
	}, nil
}

// tally is what the tables read off a finished run besides its accuracy.
type tally struct {
	trained       int     // rounds trained, summed over nodes
	participation float64 // trained over the schedule's train slots, %
	deadShare     float64 // mean share of the fleet below cutoff per round, %
}

func tallyRun(cfg sim.Config, res *sim.Result) tally {
	var t tally
	for _, tr := range res.TrainedRounds {
		t.trained += tr
	}
	nodes := len(res.TrainedRounds)
	t.participation = 100 * float64(t.trained) / float64(nodes*core.CountTrainRounds(cfg.Algo.Schedule, cfg.Rounds))
	var dead float64
	for _, m := range res.History {
		dead += float64(m.Depleted)
	}
	t.deadShare = 100 * dead / (float64(len(res.History)) * float64(nodes))
	return t
}
