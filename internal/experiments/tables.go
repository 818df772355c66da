package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/report"
)

// Table1 prints the simulation hyperparameters (paper Table 1).
func Table1(o Options) {
	o = o.Defaults()
	tb := report.NewTable("Table 1: Simulation hyperparameters", "Hyperparameter", "Description", "CIFAR-10", "FEMNIST")
	tb.AddRow("η", "Learning rate", "0.1", "0.1")
	c, f := energy.CIFAR10Workload(), energy.FEMNISTWorkload()
	tb.AddRow("|ξ|", "Batch size", strconv.Itoa(c.BatchSize), strconv.Itoa(f.BatchSize))
	tb.AddRow("E", "Local steps", strconv.Itoa(c.LocalSteps), strconv.Itoa(f.LocalSteps))
	tb.AddRow("|x|", "Model size", strconv.Itoa(c.Params), strconv.Itoa(f.Params))
	tb.AddRow("T", "Total rounds", strconv.Itoa(PaperRoundsCIFAR), strconv.Itoa(PaperRoundsFEMNIST))
	tb.Render(o.Out)
}

// Table2Row is one device of the energy-trace table.
type Table2Row struct {
	Device        string
	CIFARmWh      float64
	FEMNISTmWh    float64
	CIFARRounds   int // at 10% battery
	FEMNISTRounds int // at 50% battery
}

// Table2 regenerates the energy traces (paper Table 2): per-device,
// per-round training energy for both workloads and the battery-bounded
// round budgets. Under the table it prints a paper-scale network's
// D-PSGD totals and the derivation of every trace value.
func Table2(o Options) []Table2Row {
	o = o.Defaults()
	c, f, devices := energy.CIFAR10Workload(), energy.FEMNISTWorkload(), energy.Devices()
	var rows []Table2Row
	tb := report.NewTable("Table 2: Energy traces",
		"Device", "CIFAR-10 mWh", "FEMNIST mWh", "CIFAR-10 rounds (10%)", "FEMNIST rounds (50%)")
	derivation := report.NewTable("\nTrace derivation (Eq. 2: E = P * Δ; Δ = 3 x inference x params-ratio x batch x steps)",
		"Device", "Power W", "MobileNet-v2 infer ms", "CIFAR Δ s", "FEMNIST Δ s", "Battery Wh")
	for _, d := range devices {
		row := Table2Row{
			Device:        d.Name,
			CIFARmWh:      d.TrainRoundWh(c) * 1000,
			FEMNISTmWh:    d.TrainRoundWh(f) * 1000,
			CIFARRounds:   d.RoundBudget(c, 0.10),
			FEMNISTRounds: d.RoundBudget(f, 0.50),
		}
		rows = append(rows, row)
		tb.AddRowf("%s|%.1f|%.1f|%d|%d", row.Device, row.CIFARmWh, row.FEMNISTmWh, row.CIFARRounds, row.FEMNISTRounds)
		derivation.AddRowf("%s|%.1f|%.1f|%.2f|%.2f|%.2f", d.Name, d.PowerWatts, d.InferenceSeconds*1000,
			d.TrainRoundSeconds(c), d.TrainRoundSeconds(f), d.BatteryWh)
	}
	tb.Render(o.Out)
	roundC, roundF := energy.NetworkRoundWh(PaperNodes, devices, c), energy.NetworkRoundWh(PaperNodes, devices, f)
	fmt.Fprintf(o.Out, "\nnetwork of %d nodes, one training round: CIFAR-10 %.4f Wh, FEMNIST %.4f Wh\n", PaperNodes, roundC, roundF)
	fmt.Fprintf(o.Out, "D-PSGD totals: CIFAR-10 %.2f Wh over %d rounds (paper: 1510.04), FEMNIST %.2f Wh over %d rounds (paper: 14914.38)\n",
		roundC*PaperRoundsCIFAR, PaperRoundsCIFAR, roundF*PaperRoundsFEMNIST, PaperRoundsFEMNIST)
	derivation.Render(o.Out)
	return rows
}

// Table3Row is one (algorithm, dataset) row of the unconstrained summary.
type Table3Row struct {
	Algo     string
	Dataset  string
	EnergyWh map[int]float64 // by degree, exact at paper scale
	Acc      map[int]float64 // by degree, measured at sim scale
}

// Table3 reproduces the unconstrained summary (paper Table 3): training
// energy and average test accuracy for SkipTrain and D-PSGD over three
// topologies and two datasets. Energies are computed analytically at paper
// scale (they depend only on the schedule and the traces) and match the
// published numbers; accuracies come from the scaled simulation of
// Figure 5 when provided.
func Table3(o Options, fig5 *Figure5Result) []Table3Row {
	o = o.Defaults()
	rows := []Table3Row{}
	for _, ds := range []datasetSpec{cifar, femnist} {
		for _, algo := range []string{"SkipTrain", "D-PSGD"} {
			row := Table3Row{Algo: algo, Dataset: ds.name, EnergyWh: map[int]float64{}, Acc: map[int]float64{}}
			for _, deg := range PaperDegrees() {
				trainRounds := ds.paperRounds
				if algo == "SkipTrain" {
					trainRounds = core.CountTrainRounds(GammaForDegree(deg), ds.paperRounds)
				}
				row.EnergyWh[deg] = paperEnergyWh(trainRounds, ds.workload)
				if fig5 != nil {
					if arm := fig5.Arm(algo, ds.name, deg); arm != nil {
						row.Acc[deg] = arm.FinalAcc
					}
				}
			}
			rows = append(rows, row)
		}
	}
	renderSummary(o, "Table 3: Training energy and average test accuracy (energy exact at paper scale)", "%.2f", rows)
	return rows
}

// renderSummary writes Table 3 or 4: energy (in energyVerb's format) and
// accuracy per degree, one line per (algorithm, dataset) row.
func renderSummary(o Options, title, energyVerb string, rows []Table3Row) {
	tb := report.NewTable(title,
		"Algorithm", "Dataset", "E Wh (6)", "E Wh (8)", "E Wh (10)", "Acc% (6)", "Acc% (8)", "Acc% (10)")
	for _, r := range rows {
		tb.AddRowf("%s|%s|"+energyVerb+"|"+energyVerb+"|"+energyVerb+"|%.2f|%.2f|%.2f",
			r.Algo, r.Dataset, r.EnergyWh[6], r.EnergyWh[8], r.EnergyWh[10],
			r.Acc[6], r.Acc[8], r.Acc[10])
	}
	tb.Render(o.Out)
	fmt.Fprintln(o.Out, periodNote(evalSamples(o, testSplit(o))))
}

// Table4Row is one (algorithm, dataset) row of the constrained summary,
// shaped like Table 3's.
type Table4Row = Table3Row

// Table4 reproduces the energy-constrained summary (paper Table 4) from the
// Figure 6 runs: consumed training energy (scaled to paper units) and final
// accuracy for SkipTrain-constrained, Greedy and D-PSGD.
//
// Note on D-PSGD: the paper does not battery-limit D-PSGD; its Table 4
// energy column reports the equal-energy comparison point rather than the
// full 1510 Wh horizon. We report D-PSGD's accuracy at the largest
// cumulative energy not exceeding the constrained algorithms' budget,
// matching the spirit of "up to 12% higher accuracy at the same energy".
func Table4(o Options, fig6 *Figure6Result) []Table4Row {
	o = o.Defaults()
	rows := []Table4Row{}
	if fig6 == nil {
		return rows
	}
	for _, ds := range []string{"cifar", "femnist"} {
		for _, algo := range []string{"SkipTrain-constrained", "Greedy", "D-PSGD"} {
			row := Table4Row{Algo: algo, Dataset: ds, EnergyWh: map[int]float64{}, Acc: map[int]float64{}}
			for _, deg := range PaperDegrees() {
				arm := fig6.Arm(algo, ds, deg)
				if arm == nil {
					continue
				}
				if algo == "D-PSGD" {
					// Equal-energy comparison: find the constrained budget
					// for this (dataset, degree) and truncate D-PSGD there.
					budget := 0.0
					if c := fig6.Arm("SkipTrain-constrained", ds, deg); c != nil {
						budget = c.ConsumedWh
					}
					row.Acc[deg], row.EnergyWh[deg] = accuracyAtEnergy(arm.AccVsEnergy, budget)
				} else {
					row.EnergyWh[deg] = arm.ConsumedWh
					row.Acc[deg] = arm.FinalAcc
				}
			}
			rows = append(rows, row)
		}
	}
	renderSummary(o, "Table 4: Energy-constrained summary (paper-scale Wh)", "%.1f", rows)
	return rows
}

// accuracyAtEnergy returns the accuracy of the last curve point whose
// energy does not exceed budget (or the first point when none qualifies).
func accuracyAtEnergy(s Series, budget float64) (acc, energyAt float64) {
	if len(s.X) == 0 {
		return 0, 0
	}
	acc, energyAt = s.Y[0], s.X[0]
	for i := range s.X {
		if s.X[i] <= budget {
			acc, energyAt = s.Y[i], s.X[i]
		}
	}
	return acc, energyAt
}

// SummaryHeadline prints the paper's abstract-level claims against the
// measured results: "50% energy reduction, up to 7pp (unconstrained) and
// 12pp (constrained) accuracy gain over D-PSGD".
func SummaryHeadline(o Options, t3 []Table3Row, t4 []Table4Row) {
	o = o.Defaults()
	st, dp := cifarRow(t3, "SkipTrain"), cifarRow(t3, "D-PSGD")
	sc, dc := cifarRow(t4, "SkipTrain-constrained"), cifarRow(t4, "D-PSGD")
	var bestGainU, bestGainC, energyRatio float64
	for _, deg := range PaperDegrees() {
		if dp.EnergyWh != nil && st.EnergyWh != nil && dp.EnergyWh[deg] > 0 {
			bestGainU = max(bestGainU, st.Acc[deg]-dp.Acc[deg])
			if r := st.EnergyWh[deg] / dp.EnergyWh[deg]; energyRatio == 0 || r < energyRatio {
				energyRatio = r
			}
		}
		if sc.Acc != nil && dc.Acc != nil {
			bestGainC = max(bestGainC, sc.Acc[deg]-dc.Acc[deg])
		}
	}
	fmt.Fprintf(o.Out, "headline: SkipTrain energy ratio vs D-PSGD: %.2f (paper: ~0.5)\n", energyRatio)
	fmt.Fprintf(o.Out, "headline: best unconstrained accuracy gain: %+.1f pp (paper: up to +7)\n", bestGainU)
	fmt.Fprintf(o.Out, "headline: best constrained accuracy gain:   %+.1f pp (paper: up to +12)\n", bestGainC)
}

// cifarRow is algo's CIFAR-10 row of a summary table, zero if absent.
func cifarRow(rows []Table3Row, algo string) Table3Row {
	for _, r := range rows {
		if r.Dataset == cifar.name && r.Algo == algo {
			return r
		}
	}
	return Table3Row{}
}
