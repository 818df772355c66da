// Topology sweep: how graph density buys synchronization.
//
// The paper observes (Section 4.3) that denser topologies need fewer
// synchronization rounds because models mix faster. The mixing speed of a
// topology is its spectral gap 1-|λ₂(W)|. This example sweeps topologies
// from a ring to a 10-regular graph, reports each gap, and runs SkipTrain
// with the same schedule on all of them to show accuracy tracking the gap.
//
//	go run ./examples/topologysweep
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if err := cli.Parse(cli.NewFlagSet("topologysweep", stderr), args); err != nil {
		return cli.Exit(stderr, err)
	}
	return cli.Exit(stderr, topologysweep(stdout))
}

func topologysweep(stdout io.Writer) error {
	const (
		nodes  = 32
		rounds = 48
		seed   = 5
	)

	data := dataset.SyntheticConfig{Classes: 10, Dim: 32, Train: nodes * 40, Test: 400, Noise: 2.5, Seed: seed}
	train, test, err := dataset.Generate(data)
	if err != nil {
		return err
	}
	part, err := dataset.ShardPartition(train, nodes, 2, seed)
	if err != nil {
		return err
	}

	type arm struct {
		name string
		g    *graph.Graph
	}
	var arms []arm
	ring, err := graph.Ring(nodes)
	if err != nil {
		return err
	}
	arms = append(arms, arm{"ring (d=2)", ring})
	for _, d := range []int{4, 6, 8, 10} {
		g, err := graph.Regular(nodes, d, seed)
		if err != nil {
			return err
		}
		arms = append(arms, arm{fmt.Sprintf("%d-regular", d), g})
	}
	full, err := graph.Complete(nodes)
	if err != nil {
		return err
	}
	arms = append(arms, arm{"complete", full})

	// Each run is scored by the readout every table reports: the nodes' mean
	// accuracy over the last Γ period, which the engine always evaluates.
	algo := core.SkipTrain(core.Gamma{GammaTrain: 2, GammaSync: 2})
	tb := report.NewTable("Topology sweep: SkipTrain(2,2) on 32 nodes, 48 rounds",
		"topology", "spectral gap", "readout acc %", "acc std % @T")
	for _, a := range arms {
		w := graph.Metropolis(a.g)
		gap := w.SpectralGap(a.g, 400, seed)
		res, err := sim.Run(sim.Config{
			Graph: a.g, Weights: w,
			Algo:   algo,
			Rounds: rounds,
			ModelFactory: func(node int, r *rng.RNG) *nn.Network {
				return nn.LogisticRegression(32, 10, r)
			},
			LR: 0.2, BatchSize: 16, LocalSteps: 8,
			Partition: part, Test: test,
			EvalEvery: 0,
			Seed:      seed,
		})
		if err != nil {
			return err
		}
		tb.AddRowf("%s|%.4f|%.2f|%.2f", a.name, gap, experiments.Readout(res, algo.Schedule), res.FinalStdAcc*100)
	}
	tb.Render(stdout)
	fmt.Fprintln(stdout, "\nLarger spectral gaps mix models faster: accuracy rises and the")
	fmt.Fprintln(stdout, "spread across nodes falls as the topology densifies — the paper's")
	fmt.Fprintln(stdout, "rationale for tuning Γsync per degree.")
	return nil
}
