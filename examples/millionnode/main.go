// Million-node example: the fused fleet sweep carrying a planetary-scale
// solar fleet through a multi-day mission.
//
// One million nodes spread around the globe (internal/harvest's Diurnal
// trace with LongitudePhase) each carry a small battery and train whenever
// their state of charge clears a threshold — the paper's SoC-threshold
// participation rule. harvest.Fleet keeps all battery state in flat
// parallel slices and SweepThreshold fuses the participation decision,
// battery update, harvest, and liveness count into a single pass per node,
// so a 1M-node round costs milliseconds and the whole mission finishes in
// well under a minute on a laptop. It is the same fleet and the same
// battery kernel every simulation in this repository runs (pinned against a
// reference oracle by internal/harvest/difftest) — this example just runs
// the physics a thousand times bigger.
//
// The sweep streams telemetry (internal/obs) while it runs — a live
// progress line with per-round participation and node-round throughput —
// and closes with a reconstructed run report (internal/obs/analyze):
// participation timelines, throughput, and the fleet energy ledger.
//
//	go run ./examples/millionnode
//	go run ./examples/millionnode -nodes 1000000 -days 4 -minsoc 0.2
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/energy"
	"repro/internal/harvest"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("millionnode", stderr)
	nodes := fs.Int("nodes", 1_000_000, "fleet size")
	days := fs.Int("days", 4, "mission length in simulated days")
	period := fs.Int("period", 24, "rounds per simulated day")
	minSoC := fs.Float64("minsoc", 0.2, "train when SoC exceeds this threshold")
	peak := fs.Float64("peak", 1.5, "solar peak as a multiple of the mean per-round training cost")
	if err := cli.Parse(fs, args); err != nil {
		return cli.Exit(stderr, err)
	}
	rounds := *days * *period

	devices := energy.AssignDevices(*nodes, energy.Devices())
	w := energy.CIFAR10Workload()
	meanTrainWh := energy.NetworkRoundWh(*nodes, energy.Devices(), w) / float64(*nodes)
	trace, err := harvest.NewDiurnal(*peak*meanTrainWh, *period, harvest.LongitudePhase(*nodes))
	if err != nil {
		return cli.Exit(stderr, err)
	}
	fleet, err := harvest.NewFleet(devices, w, trace, harvest.Options{
		CapacityRounds: 12,
		InitialSoC:     0.5,
	})
	if err != nil {
		return cli.Exit(stderr, err)
	}

	fmt.Fprintf(stdout, "million-node fleet: %d nodes, %d rounds (%d days x %d rounds), trace %s\n",
		*nodes, rounds, *days, *period, fleet.TraceName())

	// Telemetry: a live progress line on stderr (round, participation,
	// node-round throughput) and an in-memory buffer the final report is
	// reconstructed from. Round events only — per-round energy totals
	// would cost extra O(nodes) passes against a ~7 ns/node-round sweep,
	// so the energy ledger is reported once from the fleet's cumulative
	// counters instead.
	mem := obs.NewMemory()
	probe := obs.NewProbe(obs.Multi(obs.NewProgress(stderr), mem))
	manifest := obs.NewManifest("millionnode", "soa-threshold-sweep", 0).
		Scale(*nodes, rounds).
		Set("trace", fleet.TraceName()).
		Setf("minsoc", "%g", *minSoC).
		Setf("peak", "%g", *peak).
		Setf("period", "%d", *period).
		Build()
	probe.RunStart(&manifest, 0)

	totalTrained := 0
	start := time.Now()
	for t := 0; t < rounds; t++ {
		probe.RoundStart(t, "sweep")
		stats := fleet.SweepThreshold(t, *minSoC)
		totalTrained += stats.Trained
		probe.RoundEnd(obs.Event{Round: t, Trained: stats.Trained, Live: stats.Live, Depleted: stats.Depleted})
	}
	elapsed := time.Since(start)
	probe.RunEnd(rounds, totalTrained)

	rep := analyze.FromEvents(mem.Events())
	fmt.Fprintln(stderr)
	rep.WriteText(stdout)

	mean, min, depleted := fleet.SoCStats(nil)
	fmt.Fprintf(stdout, "\nfinal fleet: mean SoC %.3f, min SoC %.3f, depleted %d/%d\n",
		mean, min, depleted, fleet.Nodes())
	fmt.Fprintf(stdout, "energy: harvested %.1f Wh, consumed %.1f Wh, wasted %.1f Wh\n",
		fleet.HarvestedWh(), fleet.ConsumedWh(), fleet.WastedWh())
	nodeRounds := float64(*nodes) * float64(rounds)
	fmt.Fprintf(stdout, "swept %.0fM node-rounds in %v (%.1fM node-rounds/s)\n",
		nodeRounds/1e6, elapsed.Round(time.Millisecond), nodeRounds/elapsed.Seconds()/1e6)
	return 0
}
