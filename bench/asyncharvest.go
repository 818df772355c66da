package main

import (
	"fmt"
	"runtime"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/nn"
	"repro/internal/rng"
)

// asyncHarvest drives the event-driven engine the way
// BenchmarkAsyncHarvestEventLoop does — a scarce diurnal trace, small
// batteries, LocalSteps 1 on a small model — so the event heap, the VFleet
// crossing solvers and the per-step model clones dominate and nn is a
// small share. A unit is asyncRuns runs on consecutive seeds.
type asyncHarvest struct {
	nodes, traceRounds, runs int
	seed                     uint64

	graph    *graph.Graph
	part     dataset.Partition
	test     *dataset.Dataset
	devices  []energy.Device
	workload energy.Workload
	meanWh   float64 // fleet-mean training-round energy
	stepSec  float64 // fleet-mean training-step duration = one trace round
}

func newAsyncHarvest(sz sizes, seed uint64) *asyncHarvest {
	return &asyncHarvest{nodes: sz.asyncNodes, traceRounds: sz.asyncTraceRounds, runs: sz.asyncRuns, seed: seed}
}

func (a *asyncHarvest) name() string { return "async_harvest" }

func (a *asyncHarvest) newTrace() (harvest.Trace, error) {
	return harvest.NewDiurnal(1.2*a.meanWh, 24, harvest.LongitudePhase(a.nodes))
}

func (a *asyncHarvest) setUp() (err error) {
	if a.graph, err = graph.Regular(a.nodes, 6, 42); err != nil {
		return err
	}
	train, test, err := dataset.Generate(dataset.SyntheticConfig{
		Classes: 10, Dim: 16, Train: a.nodes * 24, Test: 240, Noise: 2.5, Seed: a.seed,
	})
	if err != nil {
		return err
	}
	a.test = test
	if a.part, err = dataset.ShardPartition(train, a.nodes, 2, a.seed); err != nil {
		return err
	}
	a.devices = energy.AssignDevices(a.nodes, energy.Devices())
	a.workload = energy.CIFAR10Workload()
	a.meanWh = energy.NetworkRoundWh(a.nodes, energy.Devices(), a.workload) / float64(a.nodes)
	a.stepSec = 0
	for _, d := range a.devices {
		a.stepSec += d.TrainRoundSeconds(a.workload) / float64(a.nodes)
	}
	_, err = a.newTrace()
	return err
}

func (a *asyncHarvest) close() error {
	a.graph, a.part, a.test, a.devices = nil, nil, nil, nil
	return nil
}

func (a *asyncHarvest) run(seed uint64, tr *tracer) (*async.Result, error) {
	trace, err := a.newTrace() // each run owns its trace, like the benchmark it mirrors
	if err != nil {
		return nil, err
	}
	policy, err := harvest.NewSoCThreshold(0.2)
	if err != nil {
		return nil, err
	}
	horizon := float64(a.traceRounds) * a.stepSec
	id := tr.begin("async.run")
	res, err := async.Run(async.Config{
		Graph:        a.graph,
		Algo:         core.Algorithm{Label: a.name(), Schedule: core.AllTrain{}, Policy: policy},
		Horizon:      horizon,
		ModelFactory: func(_ int, r *rng.RNG) *nn.Network { return nn.LogisticRegression(16, 10, r) },
		LR:           0.2, BatchSize: 8, LocalSteps: 1,
		Partition: a.part, Test: a.test,
		Devices: a.devices, Workload: a.workload,
		Trace: trace,
		FleetOptions: harvest.Options{
			CapacityRounds: 8, InitialSoC: 0.3, CutoffSoC: 0.1, IdleWh: 0.2 * a.meanWh,
		},
		RoundSeconds: a.stepSec,
		// One mid-horizon evaluation splits the step count into halves:
		// the liveness counter last_half_step_share needs it.
		EvalEverySeconds: horizon / 2,
		Probe:            tr.probe("async"),
		Seed:             seed,
	})
	tr.end(id)
	return res, err
}

// halves splits a run's fleet-wide step count at mid-horizon.
func halves(res *async.Result) (total, lastHalf int) {
	for _, s := range res.StepsPerNode {
		total += s
	}
	if len(res.History) >= 2 {
		lastHalf = total - res.History[0].StepsTotal
	}
	return total, lastHalf
}

// checkAsyncRun: the event loop must do work, must see the scarcity it is
// configured for, and must still be stepping in the second half of the
// horizon.
func checkAsyncRun(res *async.Result) error {
	total, lastHalf := halves(res)
	switch {
	case total == 0:
		return fmt.Errorf("async_harvest: event loop idle (0 steps)")
	case res.Brownouts == 0:
		return fmt.Errorf("async_harvest: no brown-outs on a scarce trace")
	case lastHalf <= 0:
		return fmt.Errorf("async_harvest: no step in the second half of the horizon (%d in the first)", total)
	}
	return nil
}

func (a *asyncHarvest) unit(tr *tracer) (unitResult, error) {
	var d digester
	var r unitResult
	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	for i := 0; i < a.runs; i++ {
		res, err := a.run(a.seed+uint64(i), tr)
		if err != nil {
			return r, err
		}
		if err := checkAsyncRun(res); err != nil {
			return r, err
		}
		total, lastHalf := halves(res)
		d.f64(res.FinalMeanAcc, res.FinalStdAcc, res.TotalTrainWh, res.BrownoutShare,
			res.HarvestedWh, res.ConsumedWh, res.WastedWh)
		d.ints(res.GossipsSent, res.Brownouts, res.DroppedGossips, lastHalf)
		d.ints(res.StepsPerNode...)
		d.ints(res.TrainedSteps...)
		r.acc += 100 * res.FinalMeanAcc / float64(a.runs)
		r.work += float64(total)
		tr.count("async.steps", total)
		tr.count("async.last_half_steps", lastHalf)
		tr.count("async.brownouts", res.Brownouts)
		tr.count("async.gossips_sent", res.GossipsSent)
		tr.count("async.dropped_gossips", res.DroppedGossips)
	}
	if tr != nil {
		runtime.ReadMemStats(&after)
		tr.count("async.alloc_bytes", int(after.TotalAlloc-before.TotalAlloc))
		tr.count("async.units", 1)
	}
	r.digest = d.sum()
	return r, nil
}

func (a *asyncHarvest) layers(tr *tracer, m metrics) {
	counted := func(name string) float64 { return float64(tr.counted(a.name(), name)) }
	units, steps := counted("async.units"), counted("async.steps")
	m.set("async.ns_per_step", tr.total(a.name(), "async.run")/steps)
	m.set("async.alloc_b_per_step", counted("async.alloc_bytes")/steps)
	m.set("async.steps", steps/units)
	m.set("async.brownouts", counted("async.brownouts")/units)
	m.set("async.gossips_sent", counted("async.gossips_sent")/units)
	m.set("async.dropped_gossips", counted("async.dropped_gossips")/units)
	m.set("async.last_half_step_share", counted("async.last_half_steps")/steps)
}
