// Command skiptrain runs a single decentralized-learning experiment from
// flags: any of the paper's five algorithms on either dataset stand-in,
// with the topology, schedule, and scale under CLI control. A single run
// is built by experiments' world, as every table's run is, and its final
// line prints what a table row reports for it: the readout and the
// averaged model's column.
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
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/report"
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
	return append(cli.Scale(&c.nodes, &c.rounds, c.degrees), []cli.Rule{
		{Flags: "seed", Want: "a single run (no -exp) or a value ≥ 1 (the experiments read seed 0 as 42)", OK: func() bool { return single() || c.seed != 0 }},
		{Flags: "algo dataset", Want: "a single run (no -exp)", OK: single},
		{Flags: "degree", Want: "a single run (no -exp) and a regular topology of degree d (" + cli.Topology + ")",
			OK: func() bool { return single() && graph.CheckRegular(c.nodes, c.degree) == nil }},
		{Flags: "batch", Want: "a single run (no -exp) and a value ≥ 1", OK: func() bool { return single() && c.batch >= 1 }},
		{Flags: "steps", Want: "a single run (no -exp) and a value ≥ 1", OK: func() bool { return single() && c.steps >= 1 }},
		{Flags: "lr", Want: "a single run (no -exp) and a finite value > 0", OK: func() bool { return single() && c.lr > 0 && c.lr <= math.MaxFloat64 }},
		{Flags: "eval", Want: "a synchronous -algo (the async engine evaluates eight times a run) and a value ≥ 0",
			OK: func() bool { return single() && !strings.HasPrefix(c.algo, "async") && c.evalInt >= 0 }},
		{Flags: "gt", Want: gamma + " and a value ≥ 1", OK: func() bool { return scheduled() && c.gt >= 1 }},
		{Flags: "gs", Want: gamma + " and a value ≥ 0", OK: func() bool { return scheduled() && c.gs >= 0 }},
	}...)
}

// degrees are the topology degrees the run builds: -degree, or those of
// the -exp experiment (none for Figures 2 and 7, which build no topology).
func (c *config) degrees() []int {
	switch strings.ToLower(c.exp) {
	case "":
		return []int{c.degree}
	case "fig1", "fig4":
		return []int{experiments.PaperDegree}
	case "fig3", "fig5", "fig6", "tables":
		return experiments.PaperDegrees()
	}
	return nil
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

// run runs -exp, or else one algorithm on one dataset and topology, built
// by experiments' world like every table's run.
func (c *config) run(stdout io.Writer) error {
	if c.exp != "" {
		return c.runExperiment(stdout)
	}
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
	default:
		return fmt.Errorf("unknown algorithm %q", c.algo)
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
	var curve []float64
	for _, m := range res.Evaluations() {
		tb.AddRowf("%d|%s|%d|%.2f|%.2f|%.4f|%.5f",
			m.Round+1, m.Kind, m.TrainedCount, m.MeanAcc*100, m.StdAcc*100, m.CumTrainWh, m.CumCommWh)
		curve = append(curve, m.MeanAcc)
	}
	tb.Render(stdout)
	fmt.Fprintf(stdout, "accuracy trend: %s\n", report.Sparkline(curve))
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
