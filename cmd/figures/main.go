// Command figures regenerates every table and figure of the paper's
// evaluation section in one run, writing rendered text to stdout and CSV
// series into an output directory.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one figures invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("figures", stderr)
	nodes := fs.Int("nodes", 48, "nodes per experiment (paper: 256)")
	rounds := fs.Int("rounds", 64, "rounds per experiment (paper: 1000/3000)")
	seed := fs.Uint64("seed", 42, "experiment seed")
	outDir := fs.String("out", "results", "directory for CSV series")
	paper := fs.Bool("paper", false, "run at full paper scale (256 nodes; slow)")
	err := cli.Parse(fs, args)
	if err == nil {
		err = cli.Check(fs, append(cli.Scale(nodes, rounds, experiments.PaperDegrees), []cli.Rule{
			{Flags: "nodes rounds", Want: "no -paper, which sets the scale", OK: func() bool { return !*paper }},
			{Flags: "seed", Want: "a value ≥ 1 (the experiments read seed 0 as 42)", OK: func() bool { return *seed != 0 }},
		}...))
	}
	if err == nil {
		if *paper {
			*nodes, *rounds = experiments.PaperNodes, experiments.PaperRoundsCIFAR
		}
		err = figures(stdout, *outDir, experiments.Options{Nodes: *nodes, Rounds: *rounds, Seed: *seed, Out: stdout})
	}
	return cli.Exit(stderr, err)
}

// figures renders everything to stdout and writes the CSV series to dir.
func figures(stdout io.Writer, dir string, o experiments.Options) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	section := func(name string) { fmt.Fprintf(stdout, "\n===== %s =====\n", name) }
	writeCSV := func(name string, headers []string, cols ...[]float64) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return report.CSV(f, headers, cols...)
	}

	section("Table 1")
	experiments.Table1(o)
	section("Table 2")
	experiments.Table2(o)

	section("Figure 1")
	f1, err := experiments.Figure1(o)
	if err != nil {
		return err
	}
	if err := writeCSV("figure1.csv", []string{"round", "dpsgd_acc", "allreduce_acc"},
		f1.DPSGD.X, f1.DPSGD.Y, f1.AllReduce.Y); err != nil {
		return err
	}

	section("Figure 2")
	if err := experiments.Figure2(o); err != nil {
		return err
	}

	section("Figure 3")
	if _, err := experiments.Figure3(o, nil); err != nil {
		return err
	}

	section("Figure 4")
	f4, err := experiments.Figure4(o)
	if err != nil {
		return err
	}
	var rds, accs, stds []float64
	for _, p := range f4.Points {
		rds = append(rds, float64(p.Round))
		accs = append(accs, p.MeanAcc)
		stds = append(stds, p.StdAcc)
	}
	if err := writeCSV("figure4.csv", []string{"round", "mean_acc", "std_acc"}, rds, accs, stds); err != nil {
		return err
	}

	section("Figure 5")
	f5, err := experiments.Figure5(o, nil, nil)
	if err != nil {
		return err
	}
	for _, a := range f5.Arms {
		name := fmt.Sprintf("figure5_%s_d%d_%s.csv", a.Dataset, a.Degree, sanitize(a.Algo))
		if err := writeCSV(name, []string{"round", "acc", "energy_wh"},
			a.AccVsRound.X, a.AccVsRound.Y, a.AccVsEnergy.X); err != nil {
			return err
		}
	}

	section("Figure 6")
	f6, err := experiments.Figure6(o, nil, nil)
	if err != nil {
		return err
	}
	for _, a := range f6.Arms {
		name := fmt.Sprintf("figure6_%s_d%d_%s.csv", a.Dataset, a.Degree, sanitize(a.Algo))
		if err := writeCSV(name, []string{"energy_wh", "acc"}, a.AccVsEnergy.X, a.AccVsEnergy.Y); err != nil {
			return err
		}
	}

	section("Figure 7")
	if err := experiments.Figure7(o); err != nil {
		return err
	}

	section("Table 3")
	t3 := experiments.Table3(o, f5)
	section("Table 4")
	t4 := experiments.Table4(o, f6)
	section("Section 5.1 fairness (extension)")
	if _, err := experiments.Section51Fairness(o); err != nil {
		return err
	}
	section("Headline")
	experiments.SummaryHeadline(o, t3, t4)
	fmt.Fprintf(stdout, "\nCSV series written to %s/\n", dir)
	return nil
}

// sanitize maps every rune but an ASCII letter or digit to '_'.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			return r
		}
		return '_'
	}, s)
}
