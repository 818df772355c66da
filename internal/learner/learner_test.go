package learner_test

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/learner"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
)

// world is what both engines' test configs train on: 12 nodes on a
// 4-regular graph, a 6-class synthetic task, a 2-shard partition and the
// Table 2 devices.
type world struct {
	g       *graph.Graph
	part    dataset.Partition
	test    *dataset.Dataset
	devices []energy.Device
}

func newWorld(t *testing.T, seed uint64) world {
	t.Helper()
	g, err := graph.Regular(12, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := dataset.Generate(dataset.SyntheticConfig{Classes: 6, Dim: 8, Train: 480, Test: 240, Noise: 1.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	part, err := dataset.ShardPartition(train, 12, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return world{g: g, part: part, test: test, devices: energy.AssignDevices(12, energy.Devices())}
}

func model(_ int, r *rng.RNG) *nn.Network { return nn.LogisticRegression(8, 6, r) }

func simConfig(w world, seed uint64) sim.Config {
	return sim.Config{
		Graph: w.g, Weights: graph.Metropolis(w.g),
		Algo:         core.SkipTrain(core.Gamma{GammaTrain: 2, GammaSync: 2}),
		Rounds:       6,
		ModelFactory: model,
		LR:           0.1, BatchSize: 8, LocalSteps: 2,
		Partition: w.part, Test: w.test,
		EvalEvery: 2, EvalSubsample: 120,
		Devices: w.devices, Workload: energy.CIFAR10Workload(),
		Seed: seed,
	}
}

func asyncConfig(w world, seed uint64) async.Config {
	return async.Config{
		Graph:        w.g,
		Algo:         core.SkipTrain(core.Gamma{GammaTrain: 2, GammaSync: 2}),
		Horizon:      60,
		ModelFactory: model,
		LR:           0.1, BatchSize: 8, LocalSteps: 2,
		Partition: w.part, Test: w.test,
		Devices: w.devices, Workload: energy.CIFAR10Workload(),
		EvalEverySeconds: 20, EvalSubsample: 120,
		Seed: seed,
	}
}

// The engines' manifests hash their shared fields in one place. The
// literals last moved when the data entered them (the partition's and test
// set's fingerprints) with the readout's name: before, runs on different
// data shared a hash (17a90825… and aa0b62d7… here). On-disk sweep caches
// are addressed by these hashes, so a moved hash is a cache miss for every
// stored cell.
func TestEngineManifestHashesPinned(t *testing.T) {
	w := newWorld(t, 3)
	sr, err := sim.Run(simConfig(w, 3))
	if err != nil {
		t.Fatal(err)
	}
	ar, err := async.Run(asyncConfig(w, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ engine, got, want string }{
		{"sim", sr.Manifest.ConfigHash, "3ca6393dd25cdab749492d79d3a9aeae"},
		{"async", ar.Manifest.ConfigHash, "ca62274c28542acb40e24e7b6bd42344"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s ConfigHash %s, want %s", tc.engine, tc.got, tc.want)
		}
	}
}

// fields points into one engine's Config at the fields learner.Spec holds,
// so one mutation applies to either engine.
type fields struct {
	graph    **graph.Graph
	algo     *core.Algorithm
	factory  *func(int, *rng.RNG) *nn.Network
	lr       *float64
	batch    *int
	steps    *int
	part     *dataset.Partition
	test     **dataset.Dataset
	devices  *[]energy.Device
	workload *energy.Workload
	forecast *harvest.Forecaster
	fhorizon *int
	// battery attaches battery state the engine's own way: a harvest fleet
	// (sim) or a harvest trace (async).
	battery func()
}

// Every check learner.Spec makes rejects the same mutation in both engines
// with the same message after the engine's prefix.
func TestSharedValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	oracle := func(t *testing.T) harvest.Forecaster {
		o, err := harvest.NewOracle(harvest.Constant{Wh: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(*testing.T, fields)
	}{
		{"nil graph", "nil graph", func(_ *testing.T, f fields) { *f.graph = nil }},
		{"nil model factory", "nil model factory", func(_ *testing.T, f fields) { *f.factory = nil }},
		{"lr zero", "learning rate 0 ", func(_ *testing.T, f fields) { *f.lr = 0 }},
		{"lr NaN", "learning rate NaN ", func(_ *testing.T, f fields) { *f.lr = nan }},
		{"lr +Inf", "learning rate +Inf ", func(_ *testing.T, f fields) { *f.lr = inf }},
		{"lr -Inf", "learning rate -Inf ", func(_ *testing.T, f fields) { *f.lr = -inf }},
		{"batch zero", "bad batch/steps 0/2", func(_ *testing.T, f fields) { *f.batch = 0 }},
		{"steps zero", "bad batch/steps 8/0", func(_ *testing.T, f fields) { *f.steps = 0 }},
		{"short partition", "partition for 4 nodes, graph has 12", func(_ *testing.T, f fields) { *f.part = (*f.part)[:4] }},
		{"empty shard", "node 3 has empty partition", func(_ *testing.T, f fields) {
			p := slices.Clone(*f.part)
			p[3] = &dataset.Dataset{NumClasses: p[3].NumClasses, Dim: p[3].Dim}
			*f.part = p
		}},
		{"nil test set", "empty test set", func(_ *testing.T, f fields) { *f.test = nil }},
		{"nil schedule", "incomplete algorithm", func(_ *testing.T, f fields) { f.algo.Schedule = nil }},
		{"nil policy", "incomplete algorithm", func(_ *testing.T, f fields) { f.algo.Policy = nil }},
		{"devices for another fleet", "3 devices for 12 nodes", func(_ *testing.T, f fields) { *f.devices = (*f.devices)[:3] }},
		{"invalid workload", "invalid workload", func(_ *testing.T, f fields) { *f.workload = energy.Workload{} }},
		{"battery policy without a battery", "decides from battery state", func(t *testing.T, f fields) {
			p, err := harvest.NewSoCThreshold(0.2)
			if err != nil {
				t.Fatal(err)
			}
			f.algo.Policy = p
		}},
		{"forecast policy without a forecaster", "plans over a forecast window", func(t *testing.T, f fields) {
			p, err := harvest.NewHorizonPlan(0.05)
			if err != nil {
				t.Fatal(err)
			}
			f.battery()
			f.algo.Policy = p
		}},
		{"consumed policy", "already consumed by a prior run", func(t *testing.T, f fields) {
			p, err := harvest.NewSoCHysteresis(12, 0.1, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			empty, err := harvest.NewFleet(energy.AssignDevices(12, energy.Devices()), energy.CIFAR10Workload(), harvest.Constant{}, harvest.Options{StartEmpty: true})
			if err != nil {
				t.Fatal(err)
			}
			ctx := core.ContextAt(nil, 0, 0)
			ctx.Battery = empty
			p.Participate(0, ctx, nil) // an empty battery puts node 0 to sleep
			f.battery()
			f.algo.Policy = p
		}},
		{"forecaster without a battery", "Forecast requires a harvest fleet or trace", func(t *testing.T, f fields) {
			*f.forecast, *f.fhorizon = oracle(t), 4
		}},
		{"forecaster without a horizon", "ForecastHorizon >= 1, got 0", func(t *testing.T, f fields) {
			f.battery()
			*f.forecast = oracle(t)
		}},
		{"empty graph", "graph has no nodes", func(_ *testing.T, f fields) {
			*f.graph, *f.part, *f.devices = &graph.Graph{}, dataset.Partition{}, nil
		}},
		{"horizon without a forecaster", "ForecastHorizon 4 given without a Forecast", func(_ *testing.T, f fields) { *f.fhorizon = 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, 4)
			sc := simConfig(w, 4)
			tc.mutate(t, fields{&sc.Graph, &sc.Algo, &sc.ModelFactory, &sc.LR, &sc.BatchSize, &sc.LocalSteps,
				&sc.Partition, &sc.Test, &sc.Devices, &sc.Workload, &sc.Forecast, &sc.ForecastHorizon,
				func() {
					var err error
					if sc.Harvest, err = harvest.NewFleet(w.devices, energy.CIFAR10Workload(), harvest.Constant{Wh: 0.01}, harvest.Options{}); err != nil {
						t.Fatal(err)
					}
				}})
			ac := asyncConfig(w, 4)
			tc.mutate(t, fields{&ac.Graph, &ac.Algo, &ac.ModelFactory, &ac.LR, &ac.BatchSize, &ac.LocalSteps,
				&ac.Partition, &ac.Test, &ac.Devices, &ac.Workload, &ac.Forecast, &ac.ForecastHorizon,
				func() { ac.Trace = harvest.Constant{Wh: 0.01} }})
			_, serr := sim.Run(sc)
			_, aerr := async.Run(ac)
			if serr == nil || aerr == nil {
				t.Fatalf("sim.Run returned %v, async.Run %v; want both to reject the config", serr, aerr)
			}
			smsg, sok := strings.CutPrefix(serr.Error(), "sim: ")
			amsg, aok := strings.CutPrefix(aerr.Error(), "async: ")
			if !sok || !aok || smsg != amsg || !strings.Contains(smsg, tc.want) {
				t.Fatalf("sim.Run: %q, async.Run: %q; want one message containing %q after each engine's prefix", serr, aerr, tc.want)
			}
		})
	}
}

// NewNodes makes every node's model a window of one vector, in node order
// and with its capacity ending where the next begins, holding the weights a
// network of the node's own drew from its model stream; the worker networks
// wait in the free list, one per GOMAXPROCS. Training and scoring through
// them leaves the other nodes' windows alone.
func TestNodesAreWindowsOfOneVector(t *testing.T) {
	w := newWorld(t, 5)
	sc := simConfig(w, 5)
	spec := learner.Spec{Graph: sc.Graph, Algo: sc.Algo, ModelFactory: model, LR: sc.LR,
		BatchSize: sc.BatchSize, LocalSteps: sc.LocalSteps, Partition: sc.Partition, Test: sc.Test, Seed: 5}
	const salt, workers = 0x1417, 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	ns := spec.NewNodes(learner.Nodes{}, salt)
	if len(ns.Nets) != workers || ns.ParamCount != 54 {
		t.Fatalf("%d worker networks, %d parameters; want %d and 54", len(ns.Nets), ns.ParamCount, workers)
	}
	p := ns.ParamCount
	for i, x := range ns.Params {
		if len(x) != p || cap(x) != p {
			t.Fatalf("node %d: model has len %d, cap %d; want %d", i, len(x), cap(x), p)
		}
		if i > 0 && uintptr(unsafe.Pointer(&x[0])) != uintptr(unsafe.Pointer(&ns.Params[i-1][0]))+uintptr(8*p) {
			t.Fatalf("node %d: model does not follow node %d's in one vector", i, i-1)
		}
		if own := model(i, rng.Derive(5, uint64(i), salt)).Params(); !slices.Equal(x, own) {
			t.Fatalf("node %d: model differs from the one its own network draws", i)
		}
	}
	before := slices.Clone(ns.Params[4])
	spec.Train(&ns, 3)
	spec.Train(&ns, 5)
	if !slices.Equal(ns.Params[4], before) || len(ns.Nets) != workers {
		t.Fatal("training nodes 3 and 5 wrote node 4's model, or kept a worker network")
	}
	// Built again into their own storage, the nodes are the same windows,
	// drawn afresh, served by the same worker networks.
	nets := map[*nn.Network]bool{}
	for range workers {
		net := <-ns.Nets
		nets[net] = true
		ns.Nets <- net
	}
	again := spec.NewNodes(ns, salt)
	for i, x := range again.Params {
		if &x[0] != &ns.Params[i][0] || !slices.Equal(x, model(i, rng.Derive(5, uint64(i), salt)).Params()) {
			t.Fatalf("node %d: rebuilt model is not its old window drawn afresh", i)
		}
	}
	for range workers {
		if net := <-again.Nets; !nets[net] {
			t.Fatal("rebuilt nodes made a new worker network for a model of the same shape")
		}
	}
}
