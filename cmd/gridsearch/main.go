// Command gridsearch runs one named experiment of the evaluation, chosen
// by -job from jobs: a paper figure (figure1 ... figure7; figure3 is the
// default), Tables 1-4 (tables), the whole evaluation in the paper's
// order (paper), a harvest-coupled Γ search (gamma, degree), or an
// extension table (harvest, brownout, rejoin, forecast, async, fairness).
// For example, gridsearch -job degree -degrees 4,6,8.
//
// -out writes the paper job's figure series (Figures 1, 4, 5 and 6) into
// a directory, one CSV file per series.
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
	"cmp"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/report"
	"repro/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// job is one named experiment: how it runs on the topology degrees it
// builds and the -out directory, those degrees by default, whether
// -degrees replaces them, and whether its cells are keyed (so -cache can
// serve them).
type job struct {
	run         func(o experiments.Options, degs []int, out string) error
	degrees     []int
	axis, keyed bool
}

var (
	one   = []int{experiments.PaperDegree}
	paper = experiments.PaperDegrees()
	jobs  = map[string]job{
		"figure1":  {run: sectionsJob("Figure 1"), degrees: one},
		"figure2":  {run: sectionsJob("Figure 2")},
		"figure3":  {run: figure3, degrees: paper, axis: true, keyed: true},
		"figure4":  {run: sectionsJob("Figure 4"), degrees: one},
		"figure5":  {run: sectionsJob("Figure 5"), degrees: paper},
		"figure6":  {run: sectionsJob("Figure 6"), degrees: paper},
		"figure7":  {run: sectionsJob("Figure 7")},
		"tables":   {run: sectionsJob("Table 1", "Table 2", "Table 3", "Table 4", "Headline"), degrees: paper},
		"paper":    {run: sectionsJob(), degrees: paper},
		"gamma":    {run: quiet(experiments.TableGammaHarvest), degrees: one, keyed: true},
		"degree":   {run: degree, degrees: experiments.DefaultDegreeGrid(), axis: true, keyed: true},
		"harvest":  {run: quiet(experiments.TableHarvest), degrees: one},
		"brownout": {run: quiet(experiments.TableBrownout), degrees: one},
		"rejoin":   {run: quiet(experiments.TableRejoin), degrees: one},
		"forecast": {run: quiet(experiments.TableForecast), degrees: one},
		"async":    {run: quiet(experiments.TableAsyncHarvest), degrees: one},
		"fairness": {run: sectionsJob("Section 5.1 fairness (extension)"), degrees: one},
	}
)

// quiet runs an experiment for what it prints and drops its result.
func quiet[R any](f func(experiments.Options) (R, error)) func(experiments.Options, []int, string) error {
	return func(o experiments.Options, _ []int, _ string) error { _, err := f(o); return err }
}

// figure3 prints Figure 3 and the best (Γtrain, Γsync) per degree.
func figure3(o experiments.Options, degs []int, _ string) error {
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
func degree(o experiments.Options, degs []int, _ string) error {
	_, err := experiments.TableDegreeGamma(o, degs)
	return err
}

// paperRun is what the sections of one job share: the -out directory,
// and the results that later sections read (Tables 3 and 4 read Figures
// 5 and 6, the headline Tables 3 and 4).
type paperRun struct {
	o      experiments.Options
	dir    string
	f5     *experiments.Figure5Result
	f6     *experiments.Figure6Result
	t3, t4 []experiments.Table3Row
}

// sections is the paper's evaluation in its order, one entry per table or
// figure; the figures write their series with csv. A section that feeds a
// later one runs unprinted where only the later one is shown.
var sections = []struct {
	name, feeds string
	run         func(p *paperRun) error
}{
	{"Table 1", "", func(p *paperRun) error { experiments.Table1(p.o); return nil }},
	{"Table 2", "", func(p *paperRun) error { experiments.Table2(p.o); return nil }},
	{"Figure 1", "", func(p *paperRun) error {
		f1, err := experiments.Figure1(p.o)
		if err != nil {
			return err
		}
		return p.csv("figure1.csv", []string{"round", "dpsgd_acc", "allreduce_acc"}, f1.DPSGD.X, f1.DPSGD.Y, f1.AllReduce.Y)
	}},
	{"Figure 2", "", func(p *paperRun) error { return experiments.Figure2(p.o) }},
	{"Figure 3", "", func(p *paperRun) error { _, err := experiments.Figure3(p.o, nil); return err }},
	{"Figure 4", "", func(p *paperRun) error {
		f4, err := experiments.Figure4(p.o)
		if err != nil {
			return err
		}
		var rds, accs, stds []float64
		for _, pt := range f4.Points {
			rds, accs, stds = append(rds, float64(pt.Round)), append(accs, pt.MeanAcc), append(stds, pt.StdAcc)
		}
		return p.csv("figure4.csv", []string{"round", "mean_acc", "std_acc"}, rds, accs, stds)
	}},
	{"Figure 5", "Table 3", func(p *paperRun) (err error) {
		if p.f5, err = experiments.Figure5(p.o, nil, nil); err != nil {
			return err
		}
		for _, a := range p.f5.Arms {
			err = cmp.Or(err, p.csv(armFile(5, a.Dataset, a.Degree, a.Algo), []string{"round", "acc", "energy_wh"},
				a.AccVsRound.X, a.AccVsRound.Y, a.AccVsEnergy.X))
		}
		return err
	}},
	{"Figure 6", "Table 4", func(p *paperRun) (err error) {
		if p.f6, err = experiments.Figure6(p.o, nil, nil); err != nil {
			return err
		}
		for _, a := range p.f6.Arms {
			err = cmp.Or(err, p.csv(armFile(6, a.Dataset, a.Degree, a.Algo), []string{"energy_wh", "acc"}, a.AccVsEnergy.X, a.AccVsEnergy.Y))
		}
		return err
	}},
	{"Figure 7", "", func(p *paperRun) error { return experiments.Figure7(p.o) }},
	{"Table 3", "", func(p *paperRun) error { p.t3 = experiments.Table3(p.o, p.f5); return nil }},
	{"Table 4", "", func(p *paperRun) error { p.t4 = experiments.Table4(p.o, p.f6); return nil }},
	{"Section 5.1 fairness (extension)", "", func(p *paperRun) error { _, err := experiments.Section51Fairness(p.o); return err }},
	{"Headline", "", func(p *paperRun) error { experiments.SummaryHeadline(p.o, p.t3, p.t4); return nil }},
}

// sectionsJob runs the named sections in the paper's order. With none
// named it is the paper job: every section, each under a "===== name ====="
// header, and with -out the figures' series written into that directory.
func sectionsJob(names ...string) func(experiments.Options, []int, string) error {
	return func(o experiments.Options, _ []int, out string) error {
		if out != "" {
			if err := os.MkdirAll(out, 0o755); err != nil {
				return err
			}
		}
		p := &paperRun{o: o, dir: out}
		for _, s := range sections {
			p.o.Out = o.Out
			switch {
			case len(names) == 0:
				fmt.Fprintf(o.Out, "\n===== %s =====\n", s.name)
			case slices.Contains(names, s.name):
			case slices.Contains(names, s.feeds):
				p.o.Out = io.Discard
			default:
				continue
			}
			if err := s.run(p); err != nil {
				return err
			}
		}
		if out != "" {
			fmt.Fprintf(o.Out, "\nCSV series written to %s/\n", out)
		}
		return nil
	}
}

// csv writes one series file into the -out directory, if there is one.
func (p *paperRun) csv(name string, headers []string, cols ...[]float64) error {
	if p.dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(p.dir, name))
	if err != nil {
		return err
	}
	err = report.CSV(f, headers, cols...)
	return cmp.Or(err, f.Close())
}

// armFile names the series of one arm of Figure 5 or 6; an algorithm's
// "-" becomes "_".
func armFile(figure int, dataset string, degree int, algo string) string {
	return fmt.Sprintf("figure%d_%s_d%d_%s.csv", figure, dataset, degree, strings.ReplaceAll(algo, "-", "_"))
}

// config is the parsed command line; the flags bind straight into it.
type config struct {
	nodes, rounds            int
	seed                     uint64
	degrees, job, cache, out string
	expectAllHits            bool
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
	fs.StringVar(&c.out, "out", "", "with -job paper: write the figures' CSV series into this directory")
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
		{Flags: "cache", Want: "a job whose cells are keyed: figure3, gamma or degree", OK: func() bool { return jobs[c.job].keyed }},
		{Flags: "expect-all-hits", Want: "-cache", OK: func() bool { return c.cache != "" }},
		{Flags: "out", Want: "-job paper", OK: func() bool { return c.job == "paper" }},
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
	if c.cache != "" {
		disk, err := sweep.NewFileStore(c.cache)
		if err != nil {
			return err
		}
		o.Sweep = sweep.NewRunner(sweep.Tiered(sweep.NewMemStore(0), disk), nil)
	}
	if err := jobs[c.job].run(o, c.builds(), c.out); err != nil || o.Sweep == nil {
		return err
	}
	stats := o.Sweep.Stats()
	fmt.Fprintf(stdout, "sweep: %s\n", stats)
	if c.expectAllHits && !stats.AllHits() {
		return fmt.Errorf("expected a fully warm cache, got %s", stats)
	}
	return nil
}
