// Command gridsearch runs one named experiment of the evaluation, chosen
// by -job from jobs: a paper figure (figure1 ... figure7; figure3 is the
// default) or Tables 1-4 (tables), a harvest-coupled Γ search (gamma,
// degree), or an extension table (harvest, brownout, rejoin, forecast,
// async, fairness). For example, gridsearch -job degree -degrees 4,6,8.
//
// -cache memoizes the Γ-grid cells of figure3, gamma and degree in a
// directory (internal/sweep) that several processes may share: a rerun
// serves computed cells, prints the same tables and a "sweep:" line of
// hits and misses, and recomputes a corrupt cell file rather than serve
// it. -expect-all-hits exits 1 unless every cell was a hit. An unknown
// job, -cache on another job, and a job over 4 096 nodes, 60 000 rounds
// or 16 degrees are refused before anything runs.
package main

import (
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// job is one named experiment: how it runs on the topology degrees it
// builds, those degrees by default, whether -degrees replaces them, and
// whether its cells are keyed (so -cache can serve them).
type job struct {
	run         func(o experiments.Options, degs []int) error
	degrees     []int
	axis, keyed bool
}

var (
	one   = []int{experiments.PaperDegree}
	paper = experiments.PaperDegrees()
	jobs  = map[string]job{
		"figure1":  {run: quiet(experiments.Figure1), degrees: one},
		"figure2":  {run: func(o experiments.Options, _ []int) error { return experiments.Figure2(o) }},
		"figure3":  {run: figure3, degrees: paper, axis: true, keyed: true},
		"figure4":  {run: quiet(experiments.Figure4), degrees: one},
		"figure5":  {run: func(o experiments.Options, _ []int) error { _, err := experiments.Figure5(o, nil, nil); return err }, degrees: paper},
		"figure6":  {run: func(o experiments.Options, _ []int) error { _, err := experiments.Figure6(o, nil, nil); return err }, degrees: paper},
		"figure7":  {run: func(o experiments.Options, _ []int) error { return experiments.Figure7(o) }},
		"tables":   {run: tables, degrees: paper},
		"gamma":    {run: quiet(experiments.TableGammaHarvest), degrees: one, keyed: true},
		"degree":   {run: degree, degrees: experiments.DefaultDegreeGrid(), axis: true, keyed: true},
		"harvest":  {run: quiet(experiments.TableHarvest), degrees: one},
		"brownout": {run: quiet(experiments.TableBrownout), degrees: one},
		"rejoin":   {run: quiet(experiments.TableRejoin), degrees: one},
		"forecast": {run: quiet(experiments.TableForecast), degrees: one},
		"async":    {run: quiet(experiments.TableAsyncHarvest), degrees: one},
		"fairness": {run: quiet(experiments.Section51Fairness), degrees: one},
	}
)

// quiet runs an experiment for what it prints and drops its result.
func quiet[R any](f func(experiments.Options) (R, error)) func(experiments.Options, []int) error {
	return func(o experiments.Options, _ []int) error { _, err := f(o); return err }
}

// figure3 prints Figure 3 and the best (Γtrain, Γsync) per degree.
func figure3(o experiments.Options, degs []int) error {
	res, err := experiments.Figure3(o, degs)
	if err != nil {
		return err
	}
	for i, b := range res.Best {
		fmt.Fprintf(o.Out, "tuned for %d-regular: Γtrain=%d Γsync=%d\n", res.Degrees[i], b.GammaTrain, b.GammaSync)
	}
	return nil
}

// degree prints the degree x regime x Γ grid.
func degree(o experiments.Options, degs []int) error {
	_, err := experiments.TableDegreeGamma(o, degs)
	return err
}

// tables prints Tables 1-4 and the headline; Figures 5 and 6, which
// Tables 3 and 4 read, run unprinted.
func tables(o experiments.Options, _ []int) error {
	unprinted := experiments.Options{Nodes: o.Nodes, Rounds: o.Rounds, Seed: o.Seed, Sweep: o.Sweep}
	f5, err := experiments.Figure5(unprinted, nil, nil)
	if err != nil {
		return err
	}
	f6, err := experiments.Figure6(unprinted, nil, nil)
	if err != nil {
		return err
	}
	experiments.Table1(o)
	experiments.Table2(o)
	experiments.SummaryHeadline(o, experiments.Table3(o, f5), experiments.Table4(o, f6))
	return nil
}

// config is the parsed command line; the flags bind straight into it.
type config struct {
	nodes, rounds, workers int
	seed                   uint64
	degrees, job, cache    string
	expectAllHits          bool
}

// run executes one gridsearch invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	var c config
	fs := cli.NewFlagSet("gridsearch", stderr)
	fs.IntVar(&c.nodes, "nodes", 48, "number of nodes (paper: 256)")
	fs.IntVar(&c.rounds, "rounds", 64, "rounds per run (paper: 1000)")
	fs.Uint64Var(&c.seed, "seed", 42, "experiment seed")
	fs.StringVar(&c.degrees, "degrees", "", "comma-separated topology degrees of figure3 or degree (default: the job's own)")
	fs.StringVar(&c.job, "job", "figure3", strings.Join(slices.Sorted(maps.Keys(jobs)), " | "))
	fs.StringVar(&c.cache, "cache", "", "memoize figure3, gamma or degree cells in this directory")
	fs.IntVar(&c.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.BoolVar(&c.expectAllHits, "expect-all-hits", false, "with -cache: exit 1 unless every cell was a cache hit")
	err := cli.Parse(fs, args)
	if err == nil {
		err = cli.Check(fs, c.rules())
	}
	if err == nil {
		err = c.run(stdout)
	}
	return cli.Exit(stderr, err)
}

// The most degrees the flag table takes: each is a grid of its own.
const maxDegrees = 16

// rules is the flag table: the values the scale flags take, and the flags
// that need another. The experiments read seed 0 as seed 42, so -seed 0 is
// refused rather than silently renamed.
func (c *config) rules() []cli.Rule {
	return append(cli.Scale(&c.nodes, &c.rounds, c.builds), []cli.Rule{
		{Flags: "job", Want: "a job -h lists", OK: func() bool { _, ok := jobs[c.job]; return ok }},
		{Flags: "seed", Want: "a value ≥ 1 (the experiments read seed 0 as 42)", OK: func() bool { return c.seed != 0 }},
		{Flags: "workers", Want: "a value ≥ 0", OK: func() bool { return c.workers >= 0 }},
		{Flags: "cache", Want: "a job whose cells are keyed: figure3, gamma or degree", OK: func() bool { return jobs[c.job].keyed }},
		{Flags: "expect-all-hits", Want: "-cache", OK: func() bool { return c.cache != "" }},
		{Flags: "degrees", Want: fmt.Sprintf("-job figure3 or degree and at most %d degrees, each a regular topology's d (%s)", maxDegrees, cli.Topology), OK: func() bool {
			degs, err := parseDegrees(c.degrees)
			return jobs[c.job].axis && err == nil && len(degs) <= maxDegrees &&
				!slices.ContainsFunc(degs, func(d int) bool { return graph.CheckRegular(c.nodes, d) != nil })
		}},
	}...)
}

// builds is the topology degrees the job builds: its -degrees where it has
// a degree axis and they parse, else its own.
func (c *config) builds() []int {
	if degs, _ := parseDegrees(c.degrees); len(degs) > 0 && jobs[c.job].axis {
		return degs
	}
	return jobs[c.job].degrees
}

// parseDegrees reads -degrees; empty is none, which leaves a job its own.
func parseDegrees(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var degs []int
	for _, part := range strings.Split(s, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, cli.Usagef("bad degree %q: %v", part, err)
		}
		degs = append(degs, d)
	}
	return degs, nil
}

// run executes the job in-process, with an optional on-disk memo store so
// repeated runs skip computed cells.
func (c *config) run(stdout io.Writer) error {
	o := experiments.Options{Nodes: c.nodes, Rounds: c.rounds, Seed: c.seed, Out: stdout}
	if c.cache != "" || c.workers != 0 {
		var store sweep.Store
		if c.cache != "" {
			disk, err := sweep.NewFileStore(c.cache)
			if err != nil {
				return err
			}
			store = sweep.Tiered(sweep.NewMemStore(0), disk)
		}
		o.Sweep = sweep.NewRunner(store, par.NewPool(c.workers))
	}
	if err := jobs[c.job].run(o, c.builds()); err != nil || o.Sweep == nil {
		return err
	}
	stats := o.Sweep.Stats()
	fmt.Fprintf(stdout, "sweep: %s\n", stats)
	if c.expectAllHits && !stats.AllHits() {
		return fmt.Errorf("expected a fully warm cache, got %s", stats)
	}
	return nil
}
