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
// otherwise), and the rendered tables are produced locally from the reply. -expect-all-hits exits 1 unless every
// cell was a cache hit — CI uses it to assert warm reruns recompute
// nothing. Without -server, -cache/-workers memoize locally on disk.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sweep"
)

func main() {
	var (
		nodes   = flag.Int("nodes", 48, "number of nodes (paper: 256)")
		rounds  = flag.Int("rounds", 64, "rounds per grid cell (paper: 1000)")
		seed    = flag.Uint64("seed", 42, "experiment seed")
		degrees = flag.String("degrees", "", "comma-separated topology degrees (default: job-specific)")
		job     = flag.String("job", "figure3", "figure3 | gamma (harvest-aware Γ search) | degree (degree x regime grid)")
		server  = flag.String("server", "", "sweepd address; runs -job gamma|degree on the service")
		cache   = flag.String("cache", "", "local runs: memoize cells in this directory")
		workers = flag.Int("workers", 0, "local runs: worker pool size (0 = GOMAXPROCS)")
		expect  = flag.Bool("expect-all-hits", false, "with -server: exit 1 unless every cell was a cache hit")
		prog    = flag.Bool("progress", false, "with -server: print streamed per-cell progress")
	)
	flag.Parse()

	degs, err := parseDegrees(*degrees, *job)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	o := experiments.Options{Nodes: *nodes, Rounds: *rounds, Seed: *seed, Out: os.Stdout}

	if *server != "" {
		err = runRemote(*server, *job, experiments.SweepJobParams{
			Nodes: *nodes, Rounds: *rounds, Seed: *seed, Degrees: degs,
		}, *expect, *prog)
	} else {
		err = runLocal(o, *job, degs, *cache, *workers)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func parseDegrees(s, job string) ([]int, error) {
	if s == "" {
		if job == "figure3" {
			return []int{6, 8, 10}, nil // Figure 3's historical default axis
		}
		return nil, nil // job-specific default (degree grid: 4,6,8)
	}
	var degs []int
	for _, part := range strings.Split(s, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad degree %q: %v", part, err)
		}
		degs = append(degs, d)
	}
	return degs, nil
}

// runLocal executes the job in-process, with an optional on-disk memo
// store so repeated local runs skip computed cells just like the service.
func runLocal(o experiments.Options, job string, degs []int, cache string, workers int) error {
	if cache != "" || workers != 0 {
		var store sweep.Store
		if cache != "" {
			disk, err := sweep.NewFileStore(cache)
			if err != nil {
				return err
			}
			store = sweep.Tiered(sweep.NewMemStore(0), disk)
		}
		o.Sweep = sweep.NewRunner(store, par.NewPool(workers))
	}
	switch job {
	case "figure3":
		res, err := experiments.Figure3(o, degs)
		if err != nil {
			return err
		}
		for i, deg := range res.Degrees {
			b := res.Best[i]
			fmt.Printf("tuned for %d-regular: Γtrain=%d Γsync=%d\n", deg, b.GammaTrain, b.GammaSync)
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
		return fmt.Errorf("unknown job %q (want figure3, gamma, or degree)", job)
	}
	if o.Sweep != nil {
		fmt.Printf("sweep: %s\n", o.Sweep.Stats())
	}
	return nil
}

// runRemote submits the job to a sweepd server and renders the reply.
func runRemote(addr, job string, params experiments.SweepJobParams, expectAllHits, progress bool) error {
	var kind string
	switch job {
	case "gamma":
		kind = experiments.JobGammaGrid
	case "degree":
		kind = experiments.JobDegreeGrid
	default:
		return fmt.Errorf("job %q cannot run on a server (want gamma or degree)", job)
	}
	c, err := sweep.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()

	var onEvent func(obs.Event)
	if progress {
		onEvent = func(ev obs.Event) {
			if ev.Kind == obs.KindCell {
				fmt.Printf("cell %-60s %8.1fms\n", ev.Label, float64(ev.WallNs)/1e6)
			}
		}
	}
	raw, stats, err := c.Do(kind, params, onEvent)
	if err != nil {
		return err
	}
	switch kind {
	case experiments.JobGammaGrid:
		var rows []experiments.GammaHarvestRow
		if err := json.Unmarshal(raw, &rows); err != nil {
			return fmt.Errorf("decode %s reply: %w", kind, err)
		}
		experiments.RenderGammaHarvestRows(os.Stdout, rows)
	case experiments.JobDegreeGrid:
		var res experiments.DegreeGammaResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return fmt.Errorf("decode %s reply: %w", kind, err)
		}
		res.Render(os.Stdout)
	}
	fmt.Printf("sweep: %s\n", stats)
	if expectAllHits && !stats.AllHits() {
		return fmt.Errorf("expected a fully warm cache, got %s", stats)
	}
	return nil
}
