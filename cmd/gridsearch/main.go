// Command gridsearch runs the Γ-schedule grid searches. The default job
// regenerates Figure 3 — the Γtrain x Γsync grid on CIFAR-like data
// across topology degrees — exactly as before. Two further jobs expose
// the harvest-coupled searches, locally or against a sweepd server:
//
//	gridsearch                                    # Figure 3, local
//	gridsearch -job gamma                         # harvest-aware Γ search
//	gridsearch -job degree -degrees 4,6,8         # degree x regime x Γ grid
//	gridsearch -job degree -server localhost:7600 -progress
//	gridsearch -job gamma -server localhost:7600 -expect-all-hits
//
// With -server the job executes on the sweep service: cells are served
// from its content-addressed cache where possible, per-cell progress
// streams back live when -progress asks for it (the daemon sends none
// otherwise), and the rendered tables are produced locally from the
// reply. -expect-all-hits exits 1 unless every cell was a cache hit — CI
// uses it to assert warm reruns recompute nothing. Without -server,
// -cache/-workers memoize locally on disk.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is the parsed command line; the flags bind straight into it.
type config struct {
	nodes, rounds, workers  int
	seed                    uint64
	degrees, job            string
	server, cache           string
	expectAllHits, progress bool
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
	fs.StringVar(&c.server, "server", "", "sweepd address; runs -job gamma|degree on the service")
	fs.StringVar(&c.cache, "cache", "", "local runs: memoize cells in this directory")
	fs.IntVar(&c.workers, "workers", 0, "local runs: worker pool size (0 = GOMAXPROCS)")
	fs.BoolVar(&c.expectAllHits, "expect-all-hits", false, "with -server: exit 1 unless every cell was a cache hit")
	fs.BoolVar(&c.progress, "progress", false, "with -server: print streamed per-cell progress")
	err := cli.Parse(fs, args)
	if err == nil {
		err = cli.Check(fs, c.rules())
	}
	if err == nil {
		err = c.run(stdout)
	}
	return cli.Exit(stderr, err)
}

// rules is the flag table: the values the scale flags take, and the
// local-only and server-only flags. The experiments read seed 0 as seed 42,
// so -seed 0 is refused rather than silently renamed.
func (c *config) rules() []cli.Rule {
	local := func() bool { return c.server == "" }
	return []cli.Rule{
		{Flags: "nodes", Want: "a value ≥ 1", OK: func() bool { return c.nodes >= 1 }},
		{Flags: "rounds", Want: "a value ≥ 1", OK: func() bool { return c.rounds >= 1 }},
		{Flags: "seed", Want: "a value ≥ 1 (the experiments read seed 0 as 42)", OK: func() bool { return c.seed != 0 }},
		{Flags: "cache", Want: "a local run (no -server)", OK: local},
		{Flags: "workers", Want: "a local run (no -server) and a value ≥ 0", OK: func() bool { return local() && c.workers >= 0 }},
		{Flags: "expect-all-hits progress", Want: "-server", OK: func() bool { return c.server != "" }},
		{Flags: "degrees", Want: "-job figure3 or degree and degrees ≥ 1", OK: func() bool {
			degs, err := parseDegrees(c.degrees)
			return c.job != "gamma" && err == nil && !slices.ContainsFunc(degs, func(d int) bool { return d < 1 })
		}},
	}
}

// run executes the job locally, or on the -server.
func (c *config) run(stdout io.Writer) error {
	degs, err := parseDegrees(c.degrees)
	if err != nil {
		return err
	}
	if c.server != "" {
		return c.runRemote(stdout, experiments.SweepJobParams{Nodes: c.nodes, Rounds: c.rounds, Seed: c.seed, Degrees: degs})
	}
	return c.runLocal(stdout, degs)
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

// runLocal executes the job in-process, with an optional on-disk memo
// store so repeated local runs skip computed cells just like the service.
func (c *config) runLocal(stdout io.Writer, degs []int) error {
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
	if o.Sweep != nil {
		fmt.Fprintf(stdout, "sweep: %s\n", o.Sweep.Stats())
	}
	return nil
}

// runRemote submits the job to a sweepd server and renders the reply.
func (c *config) runRemote(stdout io.Writer, params experiments.SweepJobParams) error {
	kind := map[string]string{"gamma": experiments.JobGammaGrid, "degree": experiments.JobDegreeGrid}[c.job]
	if kind == "" {
		return fmt.Errorf("job %q cannot run on a server (want gamma or degree)", c.job)
	}
	client, err := sweep.Dial(c.server)
	if err != nil {
		return err
	}
	defer client.Close()

	var onEvent func(obs.Event)
	if c.progress {
		onEvent = func(ev obs.Event) {
			if ev.Kind == obs.KindCell {
				fmt.Fprintf(stdout, "cell %-60s %8.1fms\n", ev.Label, float64(ev.WallNs)/1e6)
			}
		}
	}
	raw, stats, err := client.Do(kind, params, onEvent)
	if err != nil {
		return err
	}
	switch kind {
	case experiments.JobGammaGrid:
		var rows []experiments.GammaHarvestRow
		if err := json.Unmarshal(raw, &rows); err != nil {
			return fmt.Errorf("decode %s reply: %w", kind, err)
		}
		experiments.RenderGammaHarvestRows(stdout, rows)
	case experiments.JobDegreeGrid:
		var res experiments.DegreeGammaResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return fmt.Errorf("decode %s reply: %w", kind, err)
		}
		res.Render(stdout)
	}
	fmt.Fprintf(stdout, "sweep: %s\n", stats)
	if c.expectAllHits && !stats.AllHits() {
		return fmt.Errorf("expected a fully warm cache, got %s", stats)
	}
	return nil
}
