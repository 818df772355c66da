// Package experiments reproduces every table and figure of the paper's
// evaluation section (Section 4). Each experiment is a function that runs
// the necessary simulations and returns a renderable result; the cmd/
// binaries and the top-level benchmarks are thin wrappers around this
// package.
//
// Scale: the paper runs 256 nodes for 1000 (CIFAR-10) or 3000 (FEMNIST)
// rounds on an 8-machine cluster. Options.Nodes/Rounds default to a
// laptop-scale version that preserves the paper's qualitative results;
// energy numbers are always additionally computed analytically at paper
// scale (256 nodes, full round counts), where they match the published
// values (see README.md "Reproduction status").
package experiments

import (
	"cmp"
	"io"

	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// PaperNodes is the node count of every experiment in the paper.
const PaperNodes = 256

// PaperDegree is the topology degree of every experiment on one topology:
// the paper's 6-regular graph.
const PaperDegree = 6

// PaperDegrees are the degrees Figures 3, 5 and 6 and Tables 3 and 4 run
// on by default, the paper's.
func PaperDegrees() []int { return []int{6, 8, 10} }

// PaperRoundsCIFAR and PaperRoundsFEMNIST are the paper's horizons.
const (
	PaperRoundsCIFAR   = 1000
	PaperRoundsFEMNIST = 3000
)

// Options controls experiment scale. The zero value is completed by
// Defaults.
type Options struct {
	Nodes  int // simulated nodes (paper: 256)
	Rounds int // simulated rounds (paper: 1000/3000)
	Seed   uint64
	Out    io.Writer // rendering destination (nil = discard)

	// Learning hyperparameters for the scaled simulation.
	LR         float64
	BatchSize  int
	LocalSteps int

	// Data scale.
	TrainPerNode  int // training samples per node
	TestSamples   int
	Noise         float64 // within-class noise (higher = harder task)
	EvalEvery     int
	EvalSubsample int

	// Probe optionally attaches the observability layer (internal/obs):
	// grid runners emit run boundaries and one cell event per completed
	// grid cell (label, wall clock, headline accuracy). The probe is NOT
	// passed into per-cell simulations — a 16-cell grid streaming
	// per-round events would drown the signal. Nil is the off state.
	Probe *obs.Probe

	// Sweep optionally routes every experiment's runs through the memoized
	// sweep scheduler (internal/sweep): they fan out on its pool, and the
	// Γ grids' cells — Figure 3's and the harvest searches' — are
	// content-addressed by their runs' manifest hash, so cached results
	// are served instead of recomputed and overlapping grids dedupe. Nil
	// runs every cell fresh on the default pool. Sweep never affects
	// computed values — cached cells are bit-identical to fresh ones — so,
	// like Probe, it is not part of any cell's cache key.
	Sweep *sweep.Runner
}

// Defaults fills unset fields with laptop-scale values.
func (o Options) Defaults() Options {
	o.Nodes = cmp.Or(o.Nodes, 48)
	o.Rounds = cmp.Or(o.Rounds, 64)
	o.Seed = cmp.Or(o.Seed, 42)
	if o.Out == nil {
		o.Out = io.Discard
	}
	o.LR = cmp.Or(o.LR, 0.2)
	o.BatchSize = cmp.Or(o.BatchSize, 16)
	o.LocalSteps = cmp.Or(o.LocalSteps, 8)
	o.TrainPerNode = cmp.Or(o.TrainPerNode, 40)
	o.TestSamples = cmp.Or(o.TestSamples, 640)
	o.Noise = cmp.Or(o.Noise, 2.5)
	o.EvalEvery = cmp.Or(o.EvalEvery, 8)
	o.EvalSubsample = cmp.Or(o.EvalSubsample, 320)
	return o
}

// cifarLikeData builds the scaled CIFAR-10 stand-in: 10 classes, 2-shard
// non-IID partition, an IID test set (a world halves it: validation, test).
func cifarLikeData(o Options) (dataset.Partition, *dataset.Dataset, error) {
	train, test, err := dataset.Generate(cifarLikeConfig(o))
	if err != nil {
		return nil, nil, err
	}
	part, err := dataset.ShardPartition(train, o.Nodes, 2, o.Seed)
	return part, test, err
}

// cifarLikeFingerprints are cifarLikeData(o)'s, from its configs alone.
func cifarLikeFingerprints(o Options) (part, test uint64) {
	train, test := cifarLikeConfig(o).Fingerprints()
	return dataset.ShardPartitionFingerprint(train, o.Nodes, 2, o.Seed), test
}

func cifarLikeConfig(o Options) dataset.SyntheticConfig {
	return dataset.SyntheticConfig{Classes: 10, Dim: 32, Train: o.Nodes * o.TrainPerNode, Test: o.TestSamples, Noise: o.Noise, Seed: o.Seed}
}

// femnistLikeData builds the scaled FEMNIST stand-in: 62 classes, natural
// writer partition over the top-N writers, an IID test set.
func femnistLikeData(o Options) (dataset.Partition, *dataset.Dataset, error) {
	writers, test, err := dataset.GenerateWriters(femnistLikeConfig(o))
	if err != nil {
		return nil, nil, err
	}
	part, err := dataset.WriterPartition(writers, o.Nodes)
	return part, test, err
}

// femnistLikeFingerprints are femnistLikeData(o)'s fingerprints.
func femnistLikeFingerprints(o Options) (part, test uint64) {
	writers, test := femnistLikeConfig(o).Fingerprints()
	return dataset.WriterPartitionFingerprint(writers, o.Nodes), test
}

func femnistLikeConfig(o Options) dataset.WritersConfig {
	cfg := dataset.FEMNISTWriters(o.Seed)
	cfg.Writers, cfg.MinPerWriter, cfg.MaxPerWriter = o.Nodes+o.Nodes/4, o.TrainPerNode/2, o.TrainPerNode*2
	cfg.Test, cfg.Noise = o.TestSamples, o.Noise
	return cfg
}

// paperEnergyWh returns the exact network training energy at paper scale
// for a given number of training rounds: trainRounds * sum of per-device
// round energies over 256 nodes.
func paperEnergyWh(trainRounds int, w energy.Workload) float64 {
	return float64(trainRounds) * energy.NetworkRoundWh(PaperNodes, energy.Devices(), w)
}

// scaledBudgets shrinks the paper's device round budgets to a scaled
// horizon: tau_scaled = max(1, tau * rounds / paperRounds), preserving the
// heterogeneity profile of Table 2. A negative node count has none; a
// world refuses it when its data is built.
func scaledBudgets(nodes, rounds, paperRounds int, w energy.Workload, fraction float64) []int {
	if nodes < 0 {
		return nil
	}
	assigned := energy.AssignDevices(nodes, energy.Devices())
	taus := make([]int, nodes)
	for i, d := range assigned {
		taus[i] = max(1, d.RoundBudget(w, fraction)*rounds/paperRounds)
	}
	return taus
}
