// Command skiptrain runs one decentralized-learning run from flags, such
// as skiptrain -algo constrained -dataset femnist -nodes 48: any of the
// paper's five algorithms on either dataset stand-in, with the topology,
// schedule, and scale under CLI control. A single run is built by
// experiments' world, as every table's run is, and its final line prints
// what a table row reports for it: the readout and the averaged model's
// column. A whole paper table or figure is gridsearch -job.
//
// A flag set where it has no effect — Γ on an algorithm without a Γ
// schedule, -eval on the asynchronous engine — or to a value it does not
// take is a usage error (exit status 2); config.rules is the table.
package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"repro/internal/async"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is the parsed command line; the flags bind straight into it.
type config struct {
	algo, dataset                 string
	nodes, degree, rounds, gt, gs int
	lr                            float64
	batch, steps, evalInt         int
	seed                          uint64
}

// run executes one skiptrain invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	var c config
	fs := cli.NewFlagSet("skiptrain", stderr)
	fs.StringVar(&c.algo, "algo", "skiptrain", strings.Join(algorithms, " | "))
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
	err := cli.Parse(fs, args)
	if err == nil {
		err = cli.Check(fs, c.rules())
	}
	if err == nil {
		err = c.run(stdout)
	}
	return cli.Exit(stderr, err)
}

// algorithms are -algo's values.
var algorithms = []string{"dpsgd", "skiptrain", "constrained", "greedy", "allreduce", "async", "async-skiptrain"}

// rules is the flag table: the values the flags take, and where -eval,
// -gt and -gs apply.
func (c *config) rules() []cli.Rule {
	scheduled := func() bool { return c.algo == "skiptrain" || c.algo == "constrained" || c.algo == "async-skiptrain" }
	const gamma = "-algo skiptrain, constrained or async-skiptrain"
	return append(cli.Scale(&c.nodes, &c.rounds, func() []int { return []int{c.degree} }), []cli.Rule{
		{Flags: "algo", Want: "one of " + strings.Join(algorithms, " | "), OK: func() bool { return slices.Contains(algorithms, c.algo) }},
		{Flags: "dataset", Want: "cifar or femnist", OK: func() bool { return c.dataset == "cifar" || c.dataset == "femnist" }},
		{Flags: "degree", Want: "a regular topology of degree d (" + cli.Topology + ")", OK: func() bool { return graph.CheckRegular(c.nodes, c.degree) == nil }},
		{Flags: "batch", Want: "a value ≥ 1", OK: func() bool { return c.batch >= 1 }},
		{Flags: "steps", Want: "a value ≥ 1", OK: func() bool { return c.steps >= 1 }},
		{Flags: "lr", Want: "a finite value > 0", OK: func() bool { return c.lr > 0 && c.lr <= math.MaxFloat64 }},
		{Flags: "eval", Want: "a synchronous -algo (the async engine evaluates eight times a run) and a value ≥ 0", OK: func() bool { return !strings.HasPrefix(c.algo, "async") && c.evalInt >= 0 }},
		{Flags: "gt", Want: gamma + " and a value ≥ 1", OK: func() bool { return scheduled() && c.gt >= 1 }},
		{Flags: "gs", Want: gamma + " and a value ≥ 0", OK: func() bool { return scheduled() && c.gs >= 0 }},
	}...)
}

// run runs one algorithm on one dataset and topology, built by
// experiments' world like every table's run.
func (c *config) run(stdout io.Writer) error {
	o := experiments.Options{Nodes: c.nodes, Rounds: c.rounds, LR: c.lr, BatchSize: c.batch, LocalSteps: c.steps}.Defaults()
	o.Seed, o.EvalEvery = c.seed, c.evalInt // Defaults reads 0 as 42 and 8; a single run keeps 0
	w, err := experiments.NewWorld(o, c.dataset, c.degree)
	if err != nil {
		return err
	}
	gamma := experiments.GammaForDegree(c.degree)
	if c.gt > 0 {
		gamma.GammaTrain = c.gt
	}
	if c.gs >= 0 {
		gamma.GammaSync = c.gs
	}
	var a core.Algorithm
	switch c.algo {
	case "dpsgd":
		a = core.DPSGD()
	case "skiptrain":
		a = core.SkipTrain(gamma)
	case "constrained":
		a = core.SkipTrainConstrained(gamma, c.rounds, w.Budgets())
	case "greedy":
		a = core.Greedy(w.Budgets())
	case "allreduce":
		a = core.AllReduce()
	case "async":
		return c.runAsync(stdout, w, core.DPSGD())
	case "async-skiptrain":
		return c.runAsync(stdout, w, core.SkipTrain(gamma))
	}
	cfg, err := w.Config(a)
	if err != nil {
		return err
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s on %s-like data: %d nodes, %d-regular, %d rounds\n",
		a.Label, c.dataset, c.nodes, c.degree, c.rounds)
	tb := report.NewTable("", "round", "kind", "trained", "mean acc %", "std %", "cum train Wh", "cum comm Wh")
	var curve experiments.Series
	for _, m := range res.Evaluations() {
		tb.AddRowf("%d|%s|%d|%.2f|%.2f|%.4f|%.5f",
			m.Round+1, m.Kind, m.TrainedCount, m.MeanAcc*100, m.StdAcc*100, m.CumTrainWh, m.CumCommWh)
		curve.X, curve.Y = append(curve.X, float64(m.Round+1)), append(curve.Y, m.MeanAcc)
	}
	tb.Render(stdout)
	fmt.Fprintf(stdout, "accuracy trend: %s\n", report.Sparkline(experiments.OnCadence(o, curve)))
	fmt.Fprintf(stdout, "final: %.2f%% | avg model %s | train %.4f Wh, comm %.5f Wh (sim scale)\n",
		experiments.Readout(res, a.Schedule), experiments.ModelColumnOf(res), res.TotalTrainWh, res.TotalCommWh)
	return nil
}

// runAsync runs a on the asynchronous engine (the paper's Section 5.3
// future-work extension): rounds are reinterpreted as the per-node step
// budget, and the horizon is sized so the slowest device can finish them.
func (c *config) runAsync(stdout io.Writer, w *experiments.World, a core.Algorithm) error {
	cfg, err := w.AsyncConfig(a, nil, harvest.Options{})
	if err != nil {
		return err
	}
	slowest := 0.0
	for _, d := range cfg.Devices {
		slowest = max(slowest, d.TrainRoundSeconds(cfg.Workload))
	}
	cfg.Horizon, cfg.StepsPerNode = slowest*float64(c.rounds)*1.2, c.rounds
	cfg.EvalEverySeconds = slowest * float64(c.rounds) / 8
	res, err := async.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "asynchronous %s on %s-like data: %d nodes, virtual horizon %.0fs\n",
		a.Label, c.dataset, c.nodes, cfg.Horizon)
	tb := report.NewTable("", "virtual time s", "mean acc %", "std %", "steps", "train Wh")
	for _, s := range res.History {
		tb.AddRowf("%.0f|%.2f|%.2f|%d|%.4f",
			s.Time, s.MeanAcc*100, s.StdAcc*100, s.StepsTotal, s.TrainWh)
	}
	tb.Render(stdout)
	fmt.Fprintf(stdout, "final: %.2f%% | avg model %s | %d gossip messages | %.4f Wh\n",
		experiments.Readout(res, a.Schedule), experiments.ModelColumnOf(res), res.GossipsSent, res.TotalTrainWh)
	return nil
}
