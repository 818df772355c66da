// Quickstart: the smallest end-to-end SkipTrain experiment.
//
// 16 nodes on a 4-regular graph collaboratively learn a 10-class task with
// heavily non-IID local data (2 labels per node). We run the conventional
// D-PSGD baseline and SkipTrain with a (2 train, 2 sync) schedule for the
// same number of rounds, then compare accuracy and energy.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if err := cli.Parse(cli.NewFlagSet("quickstart", stderr), args); err != nil {
		return cli.Exit(stderr, err)
	}
	return cli.Exit(stderr, quickstart(stdout))
}

func quickstart(stdout io.Writer) error {
	const (
		nodes     = 16
		degree    = 4
		rounds    = 40
		evalEvery = 4
		seed      = 1
	)

	// 1. Build the communication topology and its mixing matrix.
	g, err := graph.Regular(nodes, degree, seed)
	if err != nil {
		return err
	}
	weights := graph.Metropolis(g)

	// 2. Generate a synthetic 10-class dataset and give each node two
	//    label shards (the paper's non-IID CIFAR-10 setup).
	data := dataset.SyntheticConfig{
		Classes: 10, Dim: 32, Train: nodes * 40, Test: 400, Noise: 2.5, Seed: seed,
	}
	train, test, err := dataset.Generate(data)
	if err != nil {
		return err
	}
	part, err := dataset.ShardPartition(train, nodes, 2, seed)
	if err != nil {
		return err
	}

	// 3. Run both algorithms with identical data, models, and seeds.
	simulate := func(algo core.Algorithm) (*sim.Result, error) {
		return sim.Run(sim.Config{
			Graph: g, Weights: weights,
			Algo:   algo,
			Rounds: rounds,
			ModelFactory: func(node int, r *rng.RNG) *nn.Network {
				return nn.LogisticRegression(32, 10, r)
			},
			LR: 0.2, BatchSize: 16, LocalSteps: 8,
			Partition: part, Test: test,
			EvalEvery: evalEvery,
			Devices:   energy.AssignDevices(nodes, energy.Devices()),
			Workload:  energy.CIFAR10Workload(),
			Seed:      seed,
		})
	}
	dpsgdAlgo, skipAlgo := core.DPSGD(), core.SkipTrain(core.Gamma{GammaTrain: 2, GammaSync: 2})
	dpsgd, err := simulate(dpsgdAlgo)
	if err != nil {
		return err
	}
	skip, err := simulate(skipAlgo)
	if err != nil {
		return err
	}

	// 4. Compare. Round 40 ends one of SkipTrain's sync phases, so the
	//    accuracy compared is the readout every table reports: the nodes'
	//    mean accuracy over each run's last Γ period (one round for
	//    D-PSGD), which the engine always evaluates.
	tb := report.NewTable("Quickstart: 16 nodes, 4-regular, 40 rounds",
		"algorithm", "readout acc %", "training Wh", "trained rounds/node")
	tb.AddRowf("D-PSGD|%.2f|%.4f|%d",
		experiments.Readout(dpsgd, dpsgdAlgo.Schedule), dpsgd.TotalTrainWh, dpsgd.TrainedRounds[0])
	tb.AddRowf("SkipTrain(2,2)|%.2f|%.4f|%d",
		experiments.Readout(skip, skipAlgo.Schedule), skip.TotalTrainWh, skip.TrainedRounds[0])
	tb.Render(stdout)

	// The curves plot the rounds on the evaluation cadence, not the
	// readout's window rounds, so both have one point per 4 rounds.
	curve := func(r *sim.Result) []float64 {
		var s experiments.Series
		for _, m := range r.Evaluations() {
			s.X, s.Y = append(s.X, float64(m.Round+1)), append(s.Y, m.MeanAcc)
		}
		return experiments.OnCadence(experiments.Options{Rounds: rounds, EvalEvery: evalEvery}, s)
	}
	fmt.Fprintf(stdout, "\nD-PSGD    %s\nSkipTrain %s\n", report.Sparkline(curve(dpsgd)), report.Sparkline(curve(skip)))
	fmt.Fprintf(stdout, "\nSkipTrain used %.0f%% of D-PSGD's training energy.\n",
		skip.TotalTrainWh/dpsgd.TotalTrainWh*100)
	return nil
}
