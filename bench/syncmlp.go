package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
)

// syncWideMLP uses the sim/nn/tensor/transport layers the other way round
// from grid_cold: a wide model (44 042 parameters at full size) trained
// for one tiny step per round, so sharing and aggregating 352 KB vectors
// dominates and the train kernels are a small share.
type syncWideMLP struct {
	nodes, hidden, rounds int
	seed                  uint64
	gamma                 core.Gamma
	w                     *world
	models                []*nn.Network // built by set-up to time the constructors
}

func newSyncWideMLP(sz sizes, seed uint64) *syncWideMLP {
	gamma, err := core.NewGamma(1, 3)
	if err != nil {
		panic(err) // constant arguments
	}
	return &syncWideMLP{nodes: sz.mlpNodes, hidden: sz.mlpHidden, rounds: sz.mlpRounds, seed: seed, gamma: gamma}
}

func (s *syncWideMLP) name() string { return "sync_wide_mlp" }

func (s *syncWideMLP) model(_ int, r *rng.RNG) *nn.Network {
	return nn.MLP(32, []int{s.hidden}, 10, r)
}

func (s *syncWideMLP) setUp() (err error) {
	if s.w, err = buildWorld(s.nodes, 32, 40, 640, s.seed); err != nil {
		return err
	}
	s.models = make([]*nn.Network, s.nodes)
	for i := range s.models {
		s.models[i] = s.model(i, rng.Derive(s.seed, uint64(i)))
	}
	return nil
}

func (s *syncWideMLP) close() error { s.w, s.models = nil, nil; return nil }

func (s *syncWideMLP) unit(tr *tracer) (unitResult, error) {
	id := tr.begin("sim.run")
	res, err := sim.Run(sim.Config{
		Graph: s.w.graph, Weights: s.w.weights,
		Algo:         core.Algorithm{Label: s.name(), Schedule: s.gamma, Policy: core.AlwaysTrain{}},
		Rounds:       s.rounds,
		ModelFactory: s.model,
		LR:           0.1, BatchSize: 4, LocalSteps: 1,
		Partition: s.w.part, Test: s.w.val,
		EvalSubsample: 64,
		Devices:       s.w.devices, Workload: energy.CIFAR10Workload(),
		Probe: tr.probe("sim"),
		Seed:  s.seed,
	})
	tr.end(id)
	if err != nil {
		return unitResult{}, err
	}
	if err := checkSyncResult(res, s.nodes*core.CountTrainRounds(s.gamma, s.rounds)); err != nil {
		return unitResult{}, err
	}
	var d digester
	d.f64(res.FinalMeanAcc, res.FinalStdAcc, res.TotalTrainWh, res.TotalCommWh)
	d.f64(res.FinalNodeAccs...)
	d.ints(res.TrainedRounds...)
	return unitResult{
		digest: d.sum(),
		acc:    100 * res.FinalMeanAcc,
		work:   float64(s.nodes * s.rounds),
	}, nil
}

// checkSyncResult: under AlwaysTrain every node trains on every scheduled
// train round, no more and no fewer, and the models beat a 10-class coin.
func checkSyncResult(res *sim.Result, wantTrained int) error {
	trained := 0
	for _, n := range res.TrainedRounds {
		trained += n
	}
	if trained != wantTrained {
		return fmt.Errorf("sync_wide_mlp: trained %d node-rounds, want %d", trained, wantTrained)
	}
	if !(res.FinalMeanAcc > 0.1 && res.FinalMeanAcc <= 1) {
		return fmt.Errorf("sync_wide_mlp: final accuracy %v does not beat chance (0.1)", res.FinalMeanAcc)
	}
	return nil
}

func (s *syncWideMLP) layers(tr *tracer, m metrics) { simLayers(tr, s.name(), m) }
