package main

import (
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/cli/clitest"
	"repro/internal/experiments"
)

// TestGolden pins stdout byte for byte for every algorithm, both datasets,
// and the seed 0 that Options.Defaults would turn into 42.
func TestGolden(t *testing.T) {
	tiny := []string{"-nodes", "8", "-rounds", "8"}
	for name, args := range map[string][]string{
		"dpsgd":           {"-algo", "dpsgd"},
		"skiptrain":       {"-gt", "2", "-gs", "1"},
		"constrained":     {"-algo", "constrained"},
		"greedy":          {"-algo", "greedy"},
		"allreduce":       {"-algo", "allreduce"},
		"async":           {"-algo", "async"},
		"async-skiptrain": {"-algo", "async-skiptrain"},
		"femnist":         {"-dataset", "femnist"},
		"seed0":           {"-seed", "0"},
	} {
		clitest.Golden(t, run, name, append(args, tiny...)...)
	}
}

// TestSingleRunIsATableCell: a single run is built by the world every
// table's run is, and its final line prints what a table row reports for
// it — the readout and the averaged-model column — here Figure 5's CIFAR
// arms at the same Options. The final line once printed the nodes' mean
// accuracy at T, 55.86% where the table read 55.08%.
func TestSingleRunIsATableCell(t *testing.T) {
	f5, err := experiments.Figure5(experiments.Options{Nodes: 8, Rounds: 8}, []int{6}, []string{"cifar"})
	if err != nil {
		t.Fatal(err)
	}
	for algo, arm := range map[string]string{"skiptrain": "SkipTrain", "dpsgd": "D-PSGD"} {
		a := f5.Arm(arm, "cifar", 6)
		want := fmt.Sprintf("final: %.2f%% | avg model %s | ", a.FinalAcc, a.Model)
		if code, out := clitest.Exec(t, run, "-algo", algo, "-nodes", "8", "-rounds", "8"); code != 0 || !strings.Contains(out, "\n"+want) {
			t.Errorf("-algo %s: exit %d, no line starting %q (Figure 5's %s arm) in:\n%s", algo, code, want, arm, out)
		}
	}
}

// TestTrendPlotsTheCadence: the accuracy trend plots the rounds on the
// -eval cadence and T, not the readout's window rounds, as Figure 5's
// sparklines do. Rounds 8, 16, 22, 23 and 24 are evaluated here; the
// trend once plotted all five.
func TestTrendPlotsTheCadence(t *testing.T) {
	code, out := clitest.Exec(t, run, "-gt", "2", "-gs", "1", "-nodes", "8", "-rounds", "24")
	_, trend, _ := strings.Cut(out, "\naccuracy trend: ")
	trend, _, _ = strings.Cut(trend, "\n")
	if n := utf8.RuneCountInString(trend); code != 0 || n != 3 || !strings.Contains(out, "\n23 ") {
		t.Errorf("exit %d, want rounds 8, 16 and 24 in the trend, got %d points in:\n%s", code, n, out)
	}
}

// TestFlagTable sets every flag of the table once where it does not apply
// or to a value it does not take (a usage error), and once where it does
// (a run that succeeds).
func TestFlagTable(t *testing.T) {
	cases := map[string]struct {
		without, with []string
	}{
		"nodes":   {[]string{"-nodes", "-4"}, []string{"-nodes", "8"}},
		"rounds":  {[]string{"-rounds", "0"}, []string{"-rounds", "2"}},
		"algo":    {[]string{"-algo", "bogus"}, []string{"-algo", "dpsgd"}},
		"dataset": {[]string{"-dataset", "bogus"}, []string{"-dataset", "femnist"}},
		"degree":  {[]string{"-degree", "1"}, []string{"-degree", "4"}},
		"batch":   {[]string{"-batch", "0"}, []string{"-batch", "8"}},
		"steps":   {[]string{"-steps", "0"}, []string{"-steps", "2"}},
		"eval":    {[]string{"-algo", "async", "-eval", "2"}, []string{"-algo", "greedy", "-eval", "2"}},
		"lr":      {[]string{"-lr", "NaN"}, []string{"-lr", "0.1"}},
		"gt":      {[]string{"-algo", "dpsgd", "-gt", "3"}, []string{"-algo", "constrained", "-gt", "3"}},
		"gs":      {[]string{"-gs", "-7"}, []string{"-algo", "async-skiptrain", "-gs", "2"}},
	}
	var flags []string
	for _, r := range new(config).rules() {
		flags = append(flags, strings.Fields(r.Flags)...)
	}
	if len(flags) != len(cases) {
		t.Errorf("flag table covers %d flags, the test %d", len(flags), len(cases))
	}
	for _, flag := range flags {
		tc, ok := cases[flag]
		if !ok {
			t.Errorf("no test case for table flag -%s", flag)
			continue
		}
		tiny := []string{"-nodes", "8", "-rounds", "4"}
		clitest.Exit(t, run, 2, append(tiny, tc.without...)...)
		clitest.Exit(t, run, 0, append(tiny, tc.with...)...)
	}
}

// TestUsageErrors: Γ and learning rates that once fell back to a default
// or ran to chance accuracy, and positional arguments, exit 2.
func TestUsageErrors(t *testing.T) {
	clitest.Exit(t, run, 0, "-h")
	for _, args := range [][]string{
		{"-nodes", "8", "extra", "-rounds", "4"},
		{"-gt", "-3"},
		{"-gs", "-7"},
		{"-algo", "dpsgd", "-gt", "3"},
		{"-algo", "greedy", "-gt", "3"},
		{"-algo", "allreduce", "-gs", "2"},
		{"-algo", "async", "-gt", "3"},
		{"-lr", "NaN"},
		{"-lr", "+Inf"},
		{"-lr", "NaN", "-algo", "async"},
		{"-lr", "+Inf", "-algo", "async"},
	} {
		clitest.Exit(t, run, 2, append([]string{"-nodes", "8", "-rounds", "4"}, args...)...)
	}
	// A job too large to finish or fit in memory once ran until the runtime
	// ran out of it, an unknown -algo or -dataset once exited 1, and the
	// whole paper experiments moved to gridsearch -job.
	for _, args := range [][]string{
		{"-nodes", "-4"}, {"-rounds", "-4"}, {"-nodes", "1099511627776"}, {"-nodes", "4097"}, {"-nodes", "8", "-rounds", "60001"},
		{"-algo", "bogus"}, {"-algo", "DPSGD"}, {"-dataset", "bogus"}, {"-dataset", "cifar10"}, {"-exp", "tables"},
		// The default 6-regular topology does not fit on 5 nodes: this once
		// generated the data set, then failed.
		{"-nodes", "5"},
	} {
		if code, out := clitest.Exec(t, run, args...); code != 2 || out != "" {
			t.Errorf("%q: exit %d, want 2, and stdout %q", args, code, out)
		}
	}
	// A negative -eval once ran as "final round only"; the others failed
	// with exit 1 only after the data set was generated.
	for _, args := range [][]string{
		{"-eval", "-1"},
		{"-algo", "greedy", "-eval", "-3"},
		{"-batch", "0"},
		{"-algo", "async", "-batch", "0"},
		{"-steps", "0"},
		{"-algo", "async-skiptrain", "-steps", "-2"},
		{"-degree", "0"},
		{"-degree", "8"},
		{"-algo", "async", "-degree", "9"},
	} {
		args = append([]string{"-nodes", "8", "-rounds", "4"}, args...)
		if code, out := clitest.Exec(t, run, args...); code != 2 || out != "" {
			t.Errorf("%q: exit %d, want 2, and stdout %q", args, code, out)
		}
	}
}
