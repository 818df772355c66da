// Command gridsearch runs the Γ-schedule grid searches. The default job
// regenerates Figure 3 — the Γtrain x Γsync grid on CIFAR-like data
// across topology degrees — exactly as before. Two further jobs expose
// the harvest-coupled searches:
//
//	gridsearch                                    # Figure 3
//	gridsearch -job gamma                         # harvest-aware Γ search
//	gridsearch -job degree -degrees 4,6,8         # degree x regime x Γ grid
//	gridsearch -job gamma -cache DIR              # memoize cells in DIR
//	gridsearch -job gamma -cache DIR -expect-all-hits
//
// -cache memoizes every Γ-grid cell in a directory (internal/sweep): a
// rerun, in this process or a later one, serves computed cells instead of
// recomputing them and prints the same tables, plus a "sweep:" line with
// the hit and miss counts. Several processes may share one directory; a
// corrupt cell file is recomputed, not served. -expect-all-hits exits 1
// unless every cell was a hit, so a warm rerun can assert it recomputed
// nothing. A job larger than 4 096 nodes, 60 000 rounds or 16 degrees is
// refused before anything runs.
package main

import (
	"fmt"
	"io"
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
	fs.IntVar(&c.rounds, "rounds", 64, "rounds per grid cell (paper: 1000)")
	fs.Uint64Var(&c.seed, "seed", 42, "experiment seed")
	fs.StringVar(&c.degrees, "degrees", "", "comma-separated topology degrees (default: job-specific)")
	fs.StringVar(&c.job, "job", "figure3", "figure3 | gamma (harvest-aware Γ search) | degree (degree x regime grid)")
	fs.StringVar(&c.cache, "cache", "", "memoize cells in this directory")
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
	return append(cli.Scale(&c.nodes, &c.rounds, c.jobDegrees), []cli.Rule{
		{Flags: "seed", Want: "a value ≥ 1 (the experiments read seed 0 as 42)", OK: func() bool { return c.seed != 0 }},
		{Flags: "workers", Want: "a value ≥ 0", OK: func() bool { return c.workers >= 0 }},
		{Flags: "expect-all-hits", Want: "-cache", OK: func() bool { return c.cache != "" }},
		{Flags: "degrees", Want: fmt.Sprintf("-job figure3 or degree and at most %d degrees, each a regular topology's d (%s)", maxDegrees, cli.Topology), OK: func() bool {
			degs, err := parseDegrees(c.degrees)
			return c.job != "gamma" && err == nil && len(degs) <= maxDegrees &&
				!slices.ContainsFunc(degs, func(d int) bool { return graph.CheckRegular(c.nodes, d) != nil })
		}},
	}...)
}

// jobDegrees are the topology degrees the job builds: -degrees, or the
// job's own axis. A -degrees the degrees rule refuses counts as the default.
func (c *config) jobDegrees() []int {
	degs, _ := parseDegrees(c.degrees)
	switch {
	case c.job == "gamma":
		return []int{experiments.PaperDegree}
	case len(degs) > 0:
		return degs
	case c.job == "figure3":
		return experiments.PaperDegrees()
	case c.job == "degree":
		return experiments.DefaultDegreeGrid()
	}
	return nil
}

// parseDegrees reads -degrees; empty leaves each job its own default axis
// (Figure 3: 6,8,10; the degree grid: 4,6,8).
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
	degs, err := parseDegrees(c.degrees)
	if err != nil {
		return err
	}
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
	switch c.job {
	case "figure3":
		res, err := experiments.Figure3(o, degs)
		if err != nil {
			return err
		}
		for i, deg := range res.Degrees {
			b := res.Best[i]
			fmt.Fprintf(stdout, "tuned for %d-regular: Γtrain=%d Γsync=%d\n", deg, b.GammaTrain, b.GammaSync)
		}
	case "gamma":
		if _, err := experiments.TableGammaHarvest(o); err != nil {
			return err
		}
	case "degree":
		if _, err := experiments.TableDegreeGamma(o, degs); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown job %q (want figure3, gamma, or degree)", c.job)
	}
	if o.Sweep == nil {
		return nil
	}
	stats := o.Sweep.Stats()
	fmt.Fprintf(stdout, "sweep: %s\n", stats)
	if c.expectAllHits && !stats.AllHits() {
		return fmt.Errorf("expected a fully warm cache, got %s", stats)
	}
	return nil
}
