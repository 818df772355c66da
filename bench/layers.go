package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sweep"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// best times reps batches of inner calls to fn, records each batch as a
// span, and returns the fastest batch in ns per call.
func (t *tracer) best(name string, reps, inner int, fn func()) float64 {
	best := 0.0
	for r := 0; r < reps; r++ {
		id := t.begin(name)
		start := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(inner)
		t.end(id)
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// probeKernels times single calls into tensor, nn, dataset and transport
// at the two shapes the simulation workloads use them: the Γ-grid cell's
// (LogReg 32→10, batch 16, a 330-float model) and sync_wide_mlp's (MLP
// 32→hidden→10, batch 4, a 44 042-float model at full size).
func probeKernels(tr *tracer, sz sizes, seed uint64, m metrics) error {
	reps := sz.probeReps
	r := rng.Derive(seed, 0xbe7c4)
	fill := func(n int) tensor.Vector {
		v := tensor.NewVector(n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		return v
	}

	// Cell shapes.
	w := tensor.NewMatrix(10, 32)
	copy(w.Data, fill(320))
	x32, y10 := fill(32), fill(10)
	m.set("tensor.matvec_ns", tr.best("tensor.matvec", reps, 4096, func() { tensor.MatVecTo(y10, w, x32) }))
	m.set("tensor.outeracc_ns", tr.best("tensor.outeracc", reps, 4096, func() { tensor.OuterAcc(w, y10, x32) }))
	logits, dLogits := fill(10), tensor.NewVector(10)
	m.set("nn.softmax_xent_ns", tr.best("nn.softmax_xent", reps, 4096, func() { nn.SoftmaxCrossEntropy(logits, 3, dLogits) }))

	train, test, err := dataset.Generate(dataset.SyntheticConfig{Classes: 10, Dim: 32, Train: 640, Test: 320, Noise: 2.5, Seed: seed})
	if err != nil {
		return err
	}
	batcher := dataset.NewBatcher(train, rng.Derive(seed, 0xba7c4))
	xs, ys := batcher.Next(16)
	m.set("dataset.batcher_next_ns", tr.best("dataset.batcher_next", reps, 1024, func() { xs, ys = batcher.Next(16) }))
	logreg := nn.LogisticRegression(32, 10, rng.Derive(seed, 1))
	m.set("nn.train_batch_ns_per_sample", tr.best("nn.train_batch", reps, 256, func() { logreg.TrainBatch(xs, ys, 0.01) })/16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const allocRuns = 100
	for i := 0; i < allocRuns; i++ {
		logreg.TrainBatch(xs, ys, 0.01)
	}
	runtime.ReadMemStats(&after)
	m.set("nn.train_batch_allocs", float64(after.Mallocs-before.Mallocs)/allocRuns)
	m.set("nn.accuracy_ns_per_sample", tr.best("nn.accuracy", reps, 4, func() { logreg.Accuracy(test.Inputs(), test.Labels()) })/float64(test.Len()))

	local, err := transport.NewLocal(2, 4)
	if err != nil {
		return err
	}
	defer local.Close()
	from, err := local.Endpoint(0)
	if err != nil {
		return err
	}
	to, err := local.Endpoint(1)
	if err != nil {
		return err
	}
	var sendErr error
	sendRecv := func(vec tensor.Vector) func() {
		return func() {
			if err := from.Send(1, transport.Message{Kind: transport.KindModel, Vec: vec}); err != nil {
				sendErr = err
				return
			}
			if _, err := to.Recv(); err != nil {
				sendErr = err
			}
		}
	}
	small := fill(logreg.ParamCount())
	m.set("transport.local_send_recv_ns", tr.best("transport.local_send_recv", reps, 1024, sendRecv(small)))

	// sync_wide_mlp shapes.
	mlp := nn.MLP(32, []int{sz.mlpHidden}, 10, rng.Derive(seed, 2))
	n := mlp.ParamCount()
	gbps := func(bytesPerCall int, ns float64) float64 { return float64(bytesPerCall) / ns }
	a, b := fill(n), fill(n)
	m.set("tensor.axpy_gbps", gbps(24*n, tr.best("tensor.axpy", reps, 64, func() { tensor.AXPY(a, 0.125, b) })))
	m.set("nn.copy_params_gbps", gbps(16*n, tr.best("nn.copy_params", reps, 64, func() { mlp.CopyParamsTo(a) })))
	m.set("transport.local_send_gbps", gbps(8*n, tr.best("transport.local_send", reps, 64, sendRecv(b))))
	if sendErr != nil {
		return fmt.Errorf("local transport probe: %w", sendErr)
	}
	m.set("nn.mlp_train_batch_ns_per_sample", tr.best("nn.mlp_train_batch", reps, 16, func() { mlp.TrainBatch(xs[:4], ys[:4], 0.01) })/4)
	wt := tensor.NewMatrix(sz.mlpHidden, 32)
	copy(wt.Data, fill(sz.mlpHidden*32))
	xh := fill(sz.mlpHidden)
	m.set("tensor.mattvec_ns", tr.best("tensor.mattvec", reps, 256, func() { tensor.MatTVecTo(x32, wt, xh) }))
	return nil
}

// probeConstructors times the constructors behind every set-up, at the
// grid's scale, plus the per-cell fleet build.
func probeConstructors(tr *tracer, sz sizes, seed uint64, m metrics) error {
	reps, nodes := sz.probeReps, sz.gridNodes
	var err error
	keep := func(e error) {
		if e != nil {
			err = e
		}
	}
	m.set("dataset.generate_ms", tr.best("dataset.generate", reps, 1, func() {
		train, _, e := dataset.Generate(dataset.SyntheticConfig{Classes: 10, Dim: 32, Train: nodes * 40, Test: 640, Noise: 2.5, Seed: seed})
		keep(e)
		if e == nil {
			_, e = dataset.ShardPartition(train, nodes, 2, seed)
			keep(e)
		}
	})/1e6)
	m.set("graph.build_ms", tr.best("graph.build", reps, 1, func() {
		g, e := graph.Regular(nodes, 6, seed)
		keep(e)
		if e == nil {
			graph.Metropolis(g)
		}
	})/1e6)
	devices := energy.AssignDevices(nodes, energy.Devices())
	m.set("harvest.engine_build_ms", tr.best("harvest.engine_build", reps, 16, func() {
		_, e := harvest.NewFleet(devices, energy.CIFAR10Workload(), harvest.Constant{Wh: 0.01}, harvest.Options{CapacityRounds: 12, InitialSoC: 0.75})
		keep(e)
	})/1e6)
	return err
}

// probeFleets guards the two round-based fleet engines on the scenarios
// of BenchmarkHarvestFleetRound and the million-node example. Neither is
// expected to move an end-to-end metric: the fleet is under 1% of a cell.
func probeFleets(tr *tracer, sz sizes, m metrics) error {
	w := energy.CIFAR10Workload()
	opt := harvest.Options{CapacityRounds: 12, InitialSoC: 0.5}
	var ferr error

	trace, err := harvest.NewDiurnal(0.01, 24, harvest.LongitudePhase(sz.pointerNodes))
	if err != nil {
		return err
	}
	pointer, err := harvest.NewFleet(energy.AssignDevices(sz.pointerNodes, energy.Devices()), w, trace, opt)
	if err != nil {
		return err
	}
	ns := tr.best("harvest.pointer_fleet", sz.fleetReps, 1, func() {
		if err := pointer.Reset(); err != nil {
			ferr = err
			return
		}
		for t := 0; t < sz.pointerRounds; t++ {
			for node := 0; node < sz.pointerNodes; node++ {
				if pointer.SoC(node) > 0.2 {
					pointer.TryTrain(node)
				}
			}
			pointer.EndRound(t)
		}
	})
	if ferr == nil && pointer.HarvestedWh() <= 0 {
		ferr = fmt.Errorf("pointer fleet harvested nothing")
	}
	m.set("harvest.pointer_ns_per_node_round", ns/float64(sz.pointerNodes*sz.pointerRounds))

	trace, err = harvest.NewDiurnal(0.01, 24, harvest.LongitudePhase(sz.soaNodes))
	if err != nil {
		return err
	}
	soa, err := harvest.NewSoAFleet(energy.AssignDevices(sz.soaNodes, energy.Devices()), w, trace, opt)
	if err != nil {
		return err
	}
	ns = tr.best("harvest.soa_fleet", sz.fleetReps, 1, func() {
		if err := soa.Reset(); err != nil {
			ferr = err
			return
		}
		for t := 0; t < sz.soaRounds; t++ {
			soa.SweepThreshold(t, 0.2)
		}
	})
	if ferr == nil && soa.HarvestedWh() <= 0 {
		ferr = fmt.Errorf("SoA fleet harvested nothing")
	}
	m.set("harvest.soa_ns_per_node_round", ns/float64(sz.soaNodes*sz.soaRounds))
	if ferr != nil {
		return fmt.Errorf("fleet probe: %w", ferr)
	}
	return nil
}

// probePar measures the fan-out primitive: the cost of one 16-index
// Pool.For over two workers, and the wall-clock ratio of one cold 16-cell
// grid on one worker against two. The ratio needs a second processor, so
// this is the one place the harness leaves GOMAXPROCS(1) — informational
// on a shared host.
func probePar(tr *tracer, sz sizes, seed uint64, m metrics) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	pool := par.NewPool(2)
	m.set("par.for_overhead_ns", tr.best("par.for", sz.probeReps, 256, func() { pool.For(16, 0, func(int) {}) }))

	o := experiments.Options{Nodes: sz.gridNodes, Rounds: sz.gridRounds, Seed: seed}
	regime := experiments.GammaGridRegimes(o)[1] // diurnal-lo
	var err error
	grid := func(workers int) float64 {
		o.Sweep = sweep.NewRunner(nil, par.NewPool(workers)) // no store: every cell computes
		return tr.best(fmt.Sprintf("par.grid_%dw", workers), 2, 1, func() {
			if _, e := experiments.RunGammaGrid(o, regime); e != nil {
				err = e
			}
		})
	}
	one, two := grid(1), grid(2)
	m.set("par.grid_speedup_2w", one/two)
	return err
}

// tracedRun is the -trace 1 run: the selected workload's units, traced
// and untraced side by side, then one traced unit of every other workload
// and the single-layer probes, so that every per-layer metric is printed
// whichever workload was selected.
func tracedRun(selected string, sz sizes, seed uint64, cfg runConfig, tmpRoot string) (*record, *tracer, error) {
	tr := newTracer()
	rec := &record{Workload: selected, Seed: seed, Trace: 1, result: result{Metrics: metrics{}}}
	m := rec.Metrics

	grid := newGridCold(sz, seed)
	mlp := newSyncWideMLP(sz, seed)
	warm, err := newSweepdWarm(sz, seed, tmpRoot)
	if err != nil {
		return nil, tr, err
	}
	defer warm.remove()
	all := []workload{grid, mlp, warm, newAsyncHarvest(sz, seed)}

	found := false
	for _, w := range all {
		if w.name() != selected {
			continue
		}
		found = true
		tl, err := measureTraced(w, cfg, tr, m)
		if err != nil {
			return nil, tr, err
		}
		rec.Attempted, rec.Failed, rec.Correct = tl.attempted, tl.failed, tl.failed == 0
		w.layers(tr, m)
	}
	if !found {
		return nil, tr, fmt.Errorf("unknown workload %q", selected)
	}
	for _, w := range all {
		if w.name() == selected {
			continue
		}
		tr.label(w.name())
		if err := w.setUp(); err != nil {
			return nil, tr, fmt.Errorf("%s: set-up: %w", w.name(), err)
		}
		_, uerr := w.unit(tr)
		if err := w.close(); uerr == nil {
			uerr = err
		}
		if uerr != nil {
			return nil, tr, fmt.Errorf("%s: traced unit: %w", w.name(), uerr)
		}
		w.layers(tr, m)
	}
	// The sim.* phase shares describe sync_wide_mlp only when it is the
	// subject; for any other selection one probed Γ-grid cell replaces
	// them.
	if selected != mlp.name() {
		tr.label(grid.name())
		if err := grid.probeCell(tr); err != nil {
			return nil, tr, fmt.Errorf("probe cell: %w", err)
		}
		simLayers(tr, grid.name(), m)
	}

	tr.label("probes")
	for _, probe := range []func() error{
		func() error { return probeKernels(tr, sz, seed, m) },
		func() error { return probeConstructors(tr, sz, seed, m) },
		func() error { return warm.probeStores(tr, sz.probeReps, m) },
		func() error { return probeFleets(tr, sz, m) },
		func() error { return probePar(tr, sz, seed, m) },
	} {
		if err := probe(); err != nil {
			return nil, tr, err
		}
	}
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			return nil, tr, fmt.Errorf("traced run left %s unmeasured", d.Name)
		}
	}
	return rec, tr, nil
}
