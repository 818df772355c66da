// Package learner is what both engines do around their time model: every
// node trains E local SGD steps on its shard, shares, averages, and is
// scored on one test set, in sim.Run's barriered rounds or on async.Run's
// event heap. Each engine builds a Spec from its Config and calls it.
package learner

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Spec is the part of a run's configuration both engines share. Battery
// reports battery state to decide from: sim's fleet or async's trace.
type Spec struct {
	Graph                 *graph.Graph
	Algo                  core.Algorithm
	ModelFactory          func(node int, r *rng.RNG) *nn.Network
	LR                    float64
	BatchSize, LocalSteps int
	Partition             dataset.Partition
	Test                  *dataset.Dataset
	EvalSubsample         int
	Devices               []energy.Device // optional here; async requires them
	Workload              energy.Workload
	Battery               bool
	Forecast              harvest.Forecaster
	ForecastHorizon       int
	Seed                  uint64
}

// Validate makes every check both engines make; each adds its own prefix.
func (s *Spec) Validate() error {
	switch {
	case s.Graph == nil:
		return fmt.Errorf("nil graph")
	case s.Graph.N < 1:
		return fmt.Errorf("graph has no nodes")
	case s.ModelFactory == nil:
		return fmt.Errorf("nil model factory")
	case !(s.LR > 0 && s.LR < math.Inf(1)):
		return fmt.Errorf("learning rate %v is not positive and finite", s.LR)
	case s.BatchSize < 1 || s.LocalSteps < 1:
		return fmt.Errorf("bad batch/steps %d/%d", s.BatchSize, s.LocalSteps)
	case len(s.Partition) != s.Graph.N:
		return fmt.Errorf("partition for %d nodes, graph has %d", len(s.Partition), s.Graph.N)
	case s.Test == nil || s.Test.Len() == 0:
		return fmt.Errorf("empty test set")
	case s.Algo.Schedule == nil || s.Algo.Policy == nil:
		return fmt.Errorf("incomplete algorithm")
	case s.Devices != nil && len(s.Devices) != s.Graph.N:
		return fmt.Errorf("%d devices for %d nodes (use energy.AssignDevices)", len(s.Devices), s.Graph.N)
	}
	if i := slices.IndexFunc(s.Partition, func(p *dataset.Dataset) bool { return p.Len() == 0 }); i >= 0 {
		return fmt.Errorf("node %d has empty partition", i)
	}
	if s.Devices != nil {
		if err := s.Workload.Validate(); err != nil {
			return err
		}
	}
	// The policy's declared needs must be wired, and a policy carrying a
	// prior run's state is rejected: state never leaks silently between runs.
	p := s.Algo.Policy
	if _, ok := p.(core.BatteryDependent); ok && !s.Battery {
		return fmt.Errorf("policy %s decides from battery state and needs a harvest fleet or trace", p.Name())
	}
	if _, ok := p.(core.ForecastDependent); ok && s.Forecast == nil {
		return fmt.Errorf("policy %s plans over a forecast window and needs Config.Forecast", p.Name())
	}
	if rp, ok := p.(core.ResettablePolicy); ok && rp.Consumed() {
		return fmt.Errorf("policy %s already consumed by a prior run; call Reset or build a fresh policy", p.Name())
	}
	switch {
	case s.Forecast != nil && !s.Battery:
		return fmt.Errorf("Forecast requires a harvest fleet or trace to forecast")
	case s.Forecast != nil && s.ForecastHorizon < 1:
		return fmt.Errorf("Forecast needs ForecastHorizon >= 1, got %d", s.ForecastHorizon)
	case s.Forecast == nil && s.ForecastHorizon != 0:
		return fmt.Errorf("ForecastHorizon %d given without a Forecast", s.ForecastHorizon)
	}
	return nil
}

// Nodes is every node's learner state and the networks that run it.
// Params[i] is node i's model vector x_i, its only model-sized state, for
// good: a window of one vector whose capacity ends with it. Nets is
// the free list of worker networks: Train and the evaluator take one, Use
// a node's model, and put it back.
type Nodes struct {
	Params     []tensor.Vector
	ParamCount int
	Nets       chan *nn.Network
	streams    []rng.RNG     // every node's model, batch and policy stream, then the worker networks'
	slab       tensor.Vector // the models, then uniform
	batchers   dataset.Batchers
	policy     []rng.RNG // what node i's participation policy draws from
	forecast   []float64 // node i's forecast window is the i-th ForecastHorizon elements
	uniform    []float64 // N weights 1/N: the fleet mean's W row
}

// NewNodes builds min(GOMAXPROCS, N) worker networks with
// ModelFactory(-1, ·) and every node: its model drawn by Network.Init from
// its model stream under the engine's own salt (which keeps each engine's
// bits), its batcher, policy RNG and forecast window, all of them windows
// of slabs. The slabs are into's, grown only where this spec needs more,
// and into's worker networks serve again when they are as many and of the
// model's shape (a worker's weights are never read), so nodes built into
// the storage of nodes of the same shape allocate one network, the one that
// draws their models; every node starts as in new storage.
func (s *Spec) NewNodes(into Nodes, salt uint64) Nodes {
	n := s.Graph.N
	rs := grow(into.streams, 3*n+1)
	for i := range n {
		rng.DeriveTo(&rs[i], s.Seed, uint64(i), salt)
		rng.DeriveTo(&rs[n+i], s.Seed, uint64(i), 0xba7c4)
		rng.DeriveTo(&rs[2*n+i], s.Seed, uint64(i), 0x90a1c)
	}
	// A worker's own weights are never read (its first Use makes them its
	// gradient vector), so they come from a copy of node 0's model stream.
	rs[3*n] = rs[0]
	net := s.ModelFactory(-1, &rs[3*n])
	p := net.ParamCount()
	ns := Nodes{Params: grow(into.Params, n), ParamCount: p, Nets: into.Nets, streams: rs,
		batchers: dataset.NewBatchers(into.batchers, s.Partition, rs[n:2*n], s.BatchSize), policy: rs[2*n : 3*n],
		forecast: into.forecast}
	workers := min(runtime.GOMAXPROCS(0), n)
	keep := cap(ns.Nets) == workers && len(ns.Nets) == workers
	if keep {
		old := <-ns.Nets
		ns.Nets <- old
		keep = old.SameShape(net)
	}
	if s.Forecast != nil {
		ns.forecast = grow(ns.forecast, n*s.ForecastHorizon)
		clear(ns.forecast)
	}
	ns.slab = grow(into.slab, n*p+n)
	for i := range n {
		ns.Params[i] = ns.slab[i*p : (i+1)*p : (i+1)*p]
		net.Init(ns.Params[i], &rs[i])
		ns.slab[n*p+i] = 1 / float64(n)
	}
	ns.uniform = ns.slab[n*p:]
	if !keep {
		ns.Nets = make(chan *nn.Network, workers)
		for ns.Nets <- net; len(ns.Nets) < workers; {
			ns.Nets <- s.ModelFactory(-1, &rs[3*n])
		}
	}
	return ns
}

// Participate asks the policy whether node i trains in ctx, its forecast
// window filled from trace round on. It writes node-i state only.
func (s *Spec) Participate(ns *Nodes, i int, ctx core.RoundContext, round int) bool {
	if h := s.ForecastHorizon; s.Forecast != nil {
		ctx.Forecast = ns.forecast[i*h : (i+1)*h : (i+1)*h]
		s.Forecast.Forecast(i, round, ctx.Forecast)
	}
	return s.Algo.Policy.Participate(i, ctx, &ns.policy[i])
}

// Train runs E local SGD steps (Algorithm 1, lines 4-6) on node i's model
// with a worker network from the free list.
func (s *Spec) Train(ns *Nodes, i int) {
	net := <-ns.Nets
	net.Use(ns.Params[i])
	for e := 0; e < s.LocalSteps; e++ {
		xs, ys := ns.batchers.Of[i].Next(s.BatchSize)
		net.TrainBatch(xs, ys, s.LR)
	}
	ns.Nets <- net
}

// Manifest starts the run's manifest with the fields both engines hash.
func (s *Spec) Manifest(engine string, rounds, paramCount int, partition, test uint64) *obs.ManifestBuilder {
	b := obs.NewManifest(engine, s.Algo.Label, s.Seed).Scale(s.Graph.N, rounds).
		Set("schedule", s.Algo.Schedule.Name()).
		Set("policy", s.Algo.Policy.Name()).
		SetHex("graph", s.Graph.Fingerprint()).
		SetHex("partition", partition).
		SetHex("test_set", test).
		Set("readout", core.ReadoutName).
		SetFloat("lr", s.LR).
		SetInt("batch", s.BatchSize).
		SetInt("local_steps", s.LocalSteps).
		SetInt("params", paramCount).
		SetInt("eval_subsample", s.EvalSubsample)
	if s.Devices != nil {
		b.SetInt("devices", len(s.Devices))
	}
	if s.Forecast != nil {
		b.Set("forecast", s.Forecast.Name()).SetInt("forecast_horizon", s.ForecastHorizon)
	}
	return b
}

// Score is one evaluation: the nodes' mean and spread of Top-1 accuracy and,
// when asked for, their consensus distance and the mean model's accuracy.
type Score struct{ Mean, Std, Consensus, Global float64 }

// Evaluator scores every node on the test set, or on EvalSubsample of its
// samples drawn once at set-up, each node's last accuracy into its row of
// accs: how often a run is evaluated never changes what it scores.
type Evaluator struct {
	accs    []float64
	models  []tensor.Vector // the nodes' Params, scored through nets
	nets    chan *nn.Network
	uniform []float64
	global  bool
	mean    tensor.Vector // the fleet mean global reads
	xs      []tensor.Vector
	ys      []int
	// The subsample's storage: the permutation it is cut from and the
	// samples xs and ys then hold. Without a subsample they hold the test
	// set's own columns, which no evaluator writes.
	perm  []int
	subXs []tensor.Vector
	subYs []int
}

// NewEvaluator scores ns into accs, one row per node; global asks for the
// Score fields Consensus and Global, both read off the fleet mean Evaluate
// writes.
// A subsample is the first EvalSubsample of one rng.Perm of the test set,
// drawn from the run's evaluation stream, into into's subsample storage,
// grown only when this spec needs more.
func (s *Spec) NewEvaluator(into Evaluator, ns Nodes, accs []float64, mean tensor.Vector, global bool) Evaluator {
	ev := Evaluator{accs: accs, models: ns.Params, nets: ns.Nets, uniform: ns.uniform, global: global, mean: mean,
		perm: into.perm, subXs: into.subXs, subYs: into.subYs}
	if k := s.EvalSubsample; k > 0 && k < s.Test.Len() {
		var draw rng.RNG
		rng.DeriveTo(&draw, s.Seed, 0xe7a1)
		ev.perm = grow(ev.perm, s.Test.Len())
		draw.PermTo(ev.perm)
		ev.subXs, ev.subYs = grow(ev.subXs, k), grow(ev.subYs, k)
		ev.xs, ev.ys = ev.subXs, ev.subYs
		for i, j := range ev.perm[:k] {
			ev.xs[i], ev.ys[i] = s.Test.Samples[j].X, s.Test.Samples[j].Y
		}
	} else {
		ev.xs, ev.ys = s.Test.Inputs(), s.Test.Labels()
	}
	return ev
}

// accuracy scores model x with a worker network from the free list.
func (ev *Evaluator) accuracy(x tensor.Vector) float64 {
	net := <-ev.nets
	net.Use(x)
	acc := net.Accuracy(ev.xs, ev.ys)
	ev.nets <- net
	return acc
}

// scoreNode writes accs[i] only: nodes score in parallel to the same bits.
func (ev *Evaluator) scoreNode(i int) { ev.accs[i] = ev.accuracy(ev.models[i]) }

// FleetMean writes the mean of every node's model into the evaluator's mean
// vector, summed in node order, and returns it.
func (ev *Evaluator) FleetMean() tensor.Vector {
	tensor.WeightedSumTo(ev.mean, ev.uniform, ev.models)
	return ev.mean
}

// Evaluate scores every node and, when asked for, the fleet mean.
func (ev *Evaluator) Evaluate() Score {
	par.ForOn(len(ev.accs), 0, ev, (*Evaluator).scoreNode)
	var sc Score
	sc.Mean, sc.Std = metrics.MeanStd(ev.accs)
	if ev.global {
		ev.FleetMean()
		sc.Consensus = metrics.ConsensusDistance(ev.models, ev.mean)
		sc.Global = ev.accuracy(ev.mean)
	}
	return sc
}

// grow is s with n elements, in s's array when it holds them; the elements
// are s's, not cleared.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}
