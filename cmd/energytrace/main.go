// Command energytrace regenerates Table 2: the per-device energy traces
// (training energy per round and battery-bounded round budgets) built with
// the paper's methodology — Burnout power draw, AI-Benchmark inference
// times scaled by model size / batch / local steps, and the FedScale 3x
// training multiplier.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one energytrace invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("energytrace", stderr)
	detail := fs.Bool("detail", false, "also print the derivation of every trace value")
	if err := cli.Parse(fs, args); err != nil {
		return cli.Exit(stderr, err)
	}

	experiments.Table2(experiments.Options{Out: stdout})

	cifar, femnist := energy.CIFAR10Workload(), energy.FEMNISTWorkload()
	perRoundCIFAR := energy.NetworkRoundWh(experiments.PaperNodes, energy.Devices(), cifar)
	perRoundFEMNIST := energy.NetworkRoundWh(experiments.PaperNodes, energy.Devices(), femnist)
	fmt.Fprintf(stdout, "\nnetwork of %d nodes, one training round: CIFAR-10 %.4f Wh, FEMNIST %.4f Wh\n",
		experiments.PaperNodes, perRoundCIFAR, perRoundFEMNIST)
	fmt.Fprintf(stdout, "D-PSGD totals: CIFAR-10 %.2f Wh over %d rounds (paper: 1510.04), FEMNIST %.2f Wh over %d rounds (paper: 14914.38)\n",
		perRoundCIFAR*float64(experiments.PaperRoundsCIFAR), experiments.PaperRoundsCIFAR,
		perRoundFEMNIST*float64(experiments.PaperRoundsFEMNIST), experiments.PaperRoundsFEMNIST)

	if *detail {
		tb := report.NewTable("\nTrace derivation (Eq. 2: E = P * Δ; Δ = 3 x inference x params-ratio x batch x steps)",
			"Device", "Power W", "MobileNet-v2 infer ms", "CIFAR Δ s", "FEMNIST Δ s", "Battery Wh")
		for _, d := range energy.Devices() {
			tb.AddRowf("%s|%.1f|%.1f|%.2f|%.2f|%.2f",
				d.Name, d.PowerWatts, d.InferenceSeconds*1000,
				d.TrainRoundSeconds(cifar), d.TrainRoundSeconds(femnist), d.BatteryWh)
		}
		tb.Render(stdout)
	}
	return 0
}
