// Command skiptrain runs a single decentralized-learning experiment from
// flags: any of the paper's five algorithms on either dataset stand-in,
// with the topology, schedule, and scale under CLI control.
//
// Examples:
//
//	skiptrain -algo dpsgd -dataset cifar -nodes 64 -rounds 100
//	skiptrain -algo skiptrain -gt 4 -gs 4 -degree 6
//	skiptrain -algo constrained -dataset femnist -nodes 48
//	skiptrain -exp fig1          # run a whole paper experiment
//
// A flag set where it has no effect — a single-run flag with -exp, Γ on an
// algorithm without a Γ schedule, -eval on the asynchronous engine — or to
// a value it does not take is a usage error (exit status 2); config.rules
// is the table.
package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/async"
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

// config is the parsed command line; the flags bind straight into it.
type config struct {
	algo, dataset, exp            string
	nodes, degree, rounds, gt, gs int
	lr                            float64
	batch, steps, evalInt         int
	seed                          uint64
}

// run executes one skiptrain invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	var c config
	fs := cli.NewFlagSet("skiptrain", stderr)
	fs.StringVar(&c.algo, "algo", "skiptrain", "dpsgd | skiptrain | constrained | greedy | allreduce | async | async-skiptrain")
	fs.StringVar(&c.dataset, "dataset", "cifar", "cifar | femnist")
	fs.IntVar(&c.nodes, "nodes", 48, "number of nodes (paper: 256)")
	fs.IntVar(&c.degree, "degree", 6, "topology degree (paper: 6, 8, 10)")
	fs.IntVar(&c.rounds, "rounds", 64, "total rounds T")
	fs.IntVar(&c.gt, "gt", 0, "Γtrain (0 = tuned value for the degree)")
	fs.IntVar(&c.gs, "gs", -1, "Γsync (-1 = tuned value for the degree)")
	fs.Float64Var(&c.lr, "lr", 0.2, "learning rate η")
	fs.IntVar(&c.batch, "batch", 16, "batch size |ξ|")
	fs.IntVar(&c.steps, "steps", 8, "local steps E")
	fs.Uint64Var(&c.seed, "seed", 42, "experiment seed")
	fs.IntVar(&c.evalInt, "eval", 8, "evaluate every N rounds")
	fs.StringVar(&c.exp, "exp", "", "run a full paper experiment instead: fig1|fig2|fig3|fig4|fig5|fig6|fig7|tables")
	err := cli.Parse(fs, args)
	if err == nil {
		err = cli.Check(fs, c.rules())
	}
	if err == nil {
		err = c.run(stdout)
	}
	return cli.Exit(stderr, err)
}

// rules is the flag table: where each single-run flag applies, and the
// values -nodes, -rounds, -seed, -degree, -batch, -steps, -lr, -eval, -gt
// and -gs take. A single run keeps
// seed 0 as seed 0; the experiments read it as 42, so -exp refuses it.
func (c *config) rules() []cli.Rule {
	single := func() bool { return c.exp == "" }
	scheduled := func() bool {
		return single() && (c.algo == "skiptrain" || c.algo == "constrained" || c.algo == "async-skiptrain")
	}
	const gamma = "-algo skiptrain, constrained or async-skiptrain"
	return []cli.Rule{
		{Flags: "nodes", Want: "a value ≥ 1", OK: func() bool { return c.nodes >= 1 }},
		{Flags: "rounds", Want: "a value ≥ 1", OK: func() bool { return c.rounds >= 1 }},
		{Flags: "seed", Want: "a single run (no -exp) or a value ≥ 1 (the experiments read seed 0 as 42)", OK: func() bool { return single() || c.seed != 0 }},
		{Flags: "algo dataset", Want: "a single run (no -exp)", OK: single},
		{Flags: "degree", Want: "a single run (no -exp) and a value in [1, nodes)", OK: func() bool { return single() && c.degree >= 1 && c.degree < c.nodes }},
		{Flags: "batch", Want: "a single run (no -exp) and a value ≥ 1", OK: func() bool { return single() && c.batch >= 1 }},
		{Flags: "steps", Want: "a single run (no -exp) and a value ≥ 1", OK: func() bool { return single() && c.steps >= 1 }},
		{Flags: "lr", Want: "a single run (no -exp) and a finite value > 0", OK: func() bool { return single() && c.lr > 0 && c.lr <= math.MaxFloat64 }},
		{Flags: "eval", Want: "a synchronous -algo (the async engine evaluates eight times a run) and a value ≥ 0",
			OK: func() bool { return single() && !strings.HasPrefix(c.algo, "async") && c.evalInt >= 0 }},
		{Flags: "gt", Want: gamma + " and a value ≥ 1", OK: func() bool { return scheduled() && c.gt >= 1 }},
		{Flags: "gs", Want: gamma + " and a value ≥ 0", OK: func() bool { return scheduled() && c.gs >= 0 }},
	}
}

// runExperiment runs the whole paper experiment -exp names.
func (c *config) runExperiment(stdout io.Writer) error {
	o := experiments.Options{Nodes: c.nodes, Rounds: c.rounds, Seed: c.seed, Out: stdout}
	switch strings.ToLower(c.exp) {
	case "fig1":
		_, err := experiments.Figure1(o)
		return err
	case "fig2":
		return experiments.Figure2(o)
	case "fig3":
		_, err := experiments.Figure3(o, nil)
		return err
	case "fig4":
		_, err := experiments.Figure4(o)
		return err
	case "fig5":
		_, err := experiments.Figure5(o, nil, nil)
		return err
	case "fig6":
		_, err := experiments.Figure6(o, nil, nil)
		return err
	case "fig7":
		return experiments.Figure7(o)
	case "tables":
		experiments.Table1(o)
		experiments.Table2(o)
		f5, err := experiments.Figure5(experiments.Options{Nodes: c.nodes, Rounds: c.rounds, Seed: c.seed}, nil, nil)
		if err != nil {
			return err
		}
		t3 := experiments.Table3(o, f5)
		f6, err := experiments.Figure6(experiments.Options{Nodes: c.nodes, Rounds: c.rounds, Seed: c.seed}, nil, nil)
		if err != nil {
			return err
		}
		t4 := experiments.Table4(o, f6)
		experiments.SummaryHeadline(o, t3, t4)
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", c.exp)
	}
}

// run runs -exp, or else one algorithm on one dataset and topology.
func (c *config) run(stdout io.Writer) error {
	if c.exp != "" {
		return c.runExperiment(stdout)
	}
	g, err := graph.Regular(c.nodes, c.degree, c.seed)
	if err != nil {
		return err
	}

	var part dataset.Partition
	var test *dataset.Dataset
	var classes int
	var workload energy.Workload
	var fraction float64
	var paperRounds int
	switch c.dataset {
	case "cifar":
		o := experiments.Options{Nodes: c.nodes}.Defaults()
		o.Seed = c.seed // Defaults maps seed 0 to 42; -seed 0 is seed 0
		if part, _, test, err = experiments.CIFARLikeData(o); err != nil {
			return err
		}
		classes, workload, fraction, paperRounds = 10, energy.CIFAR10Workload(), 0.10, experiments.PaperRoundsCIFAR
	case "femnist":
		cfg := dataset.FEMNISTWriters(c.seed)
		cfg.Writers = c.nodes + c.nodes/4
		cfg.Noise = 2.5
		writers, testAll, err := dataset.GenerateWriters(cfg)
		if err != nil {
			return err
		}
		part, err = dataset.WriterPartition(writers, c.nodes)
		if err != nil {
			return err
		}
		_, test = testAll.Split(testAll.Len() / 2)
		classes, workload, fraction, paperRounds = 62, energy.FEMNISTWorkload(), 0.50, experiments.PaperRoundsFEMNIST
	default:
		return fmt.Errorf("unknown dataset %q", c.dataset)
	}

	gamma := experiments.GammaForDegree(c.degree)
	if c.gt > 0 {
		gamma.GammaTrain = c.gt
	}
	if c.gs >= 0 {
		gamma.GammaSync = c.gs
	}
	budgets := func() []int {
		return experiments.ScaledBudgets(c.nodes, c.rounds, paperRounds, workload, fraction)
	}
	model := func(node int, r *rng.RNG) *nn.Network { return nn.LogisticRegression(32, classes, r) }

	var a core.Algorithm
	switch c.algo {
	case "dpsgd":
		a = core.DPSGD()
	case "skiptrain":
		a = core.SkipTrain(gamma)
	case "constrained":
		a = core.SkipTrainConstrained(gamma, c.rounds, budgets())
	case "greedy":
		a = core.Greedy(budgets())
	case "allreduce":
		a = core.AllReduce()
	case "async", "async-skiptrain":
		inner := core.DPSGD()
		if c.algo == "async-skiptrain" {
			inner = core.SkipTrain(gamma)
		}
		return c.runAsync(stdout, inner, g, part, test, model, workload)
	default:
		return fmt.Errorf("unknown algorithm %q", c.algo)
	}

	res, err := sim.Run(sim.Config{
		Graph: g, Weights: graph.Metropolis(g),
		Algo:         a,
		Rounds:       c.rounds,
		ModelFactory: model,
		LR:           c.lr, BatchSize: c.batch, LocalSteps: c.steps,
		Partition: part, Test: test,
		EvalEvery: c.evalInt, EvalSubsample: 320,
		EvalGlobalModel: c.algo == "allreduce",
		Devices:         energy.AssignDevices(c.nodes, energy.Devices()),
		Workload:        workload,
		Seed:            c.seed,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%s on %s-like data: %d nodes, %d-regular, %d rounds\n",
		a.Label, c.dataset, c.nodes, c.degree, c.rounds)
	tb := report.NewTable("", "round", "kind", "trained", "mean acc %", "std %", "cum train Wh", "cum comm Wh")
	var curve []float64
	for _, m := range res.Evaluations() {
		tb.AddRowf("%d|%s|%d|%.2f|%.2f|%.4f|%.5f",
			m.Round+1, m.Kind, m.TrainedCount, m.MeanAcc*100, m.StdAcc*100, m.CumTrainWh, m.CumCommWh)
		curve = append(curve, m.MeanAcc)
	}
	tb.Render(stdout)
	fmt.Fprintf(stdout, "accuracy trend: %s\n", report.Sparkline(curve))
	fmt.Fprintf(stdout, "final: %.2f%% ± %.2f | train %.4f Wh, comm %.5f Wh (sim scale)\n",
		res.FinalMeanAcc*100, res.FinalStdAcc*100, res.TotalTrainWh, res.TotalCommWh)
	return nil
}

// runAsync executes the experiment on the asynchronous engine (the paper's
// Section 5.3 future-work extension): rounds are reinterpreted as the
// per-node step budget, and the horizon is sized so the slowest device can
// finish them.
func (c *config) runAsync(stdout io.Writer, a core.Algorithm, g *graph.Graph, part dataset.Partition,
	test *dataset.Dataset, model func(int, *rng.RNG) *nn.Network, workload energy.Workload) error {
	devices := energy.AssignDevices(g.N, energy.Devices())
	slowest := 0.0
	for _, d := range devices {
		if s := d.TrainRoundSeconds(workload); s > slowest {
			slowest = s
		}
	}
	res, err := async.Run(async.Config{
		Graph:        g,
		Algo:         a,
		Horizon:      slowest * float64(c.rounds) * 1.2,
		StepsPerNode: c.rounds,
		ModelFactory: model,
		LR:           c.lr, BatchSize: c.batch, LocalSteps: c.steps,
		Partition: part, Test: test,
		Devices: devices, Workload: workload,
		EvalEverySeconds: slowest * float64(c.rounds) / 8,
		EvalSubsample:    320,
		Seed:             c.seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "asynchronous %s on %s-like data: %d nodes, virtual horizon %.0fs\n",
		a.Label, c.dataset, g.N, slowest*float64(c.rounds)*1.2)
	tb := report.NewTable("", "virtual time s", "mean acc %", "std %", "steps", "train Wh")
	for _, s := range res.History {
		tb.AddRowf("%.0f|%.2f|%.2f|%d|%.4f",
			s.Time, s.MeanAcc*100, s.StdAcc*100, s.StepsTotal, s.TrainWh)
	}
	tb.Render(stdout)
	fmt.Fprintf(stdout, "final: %.2f%% ± %.2f | %d gossip messages | %.4f Wh\n",
		res.FinalMeanAcc*100, res.FinalStdAcc*100, res.GossipsSent, res.TotalTrainWh)
	return nil
}
