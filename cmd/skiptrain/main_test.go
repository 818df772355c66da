package main

import (
	"strings"
	"testing"

	"repro/internal/cli/clitest"
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

// TestFlagTable sets every flag of the table once where it does not apply
// or to a value it does not take (a usage error), and once where it does
// (a run that succeeds).
func TestFlagTable(t *testing.T) {
	cases := map[string]struct {
		without, with []string
	}{
		"nodes":   {[]string{"-nodes", "-4"}, []string{"-nodes", "8"}},
		"rounds":  {[]string{"-rounds", "0"}, []string{"-rounds", "2"}},
		"seed":    {[]string{"-exp", "fig1", "-seed", "0"}, []string{"-seed", "0"}},
		"algo":    {[]string{"-exp", "fig9", "-algo", "dpsgd"}, []string{"-algo", "dpsgd"}},
		"dataset": {[]string{"-exp", "fig9", "-dataset", "femnist"}, []string{"-dataset", "femnist"}},
		"degree":  {[]string{"-exp", "fig9", "-degree", "4"}, []string{"-degree", "4"}},
		"batch":   {[]string{"-exp", "fig9", "-batch", "8"}, []string{"-batch", "8"}},
		"steps":   {[]string{"-exp", "fig9", "-steps", "2"}, []string{"-steps", "2"}},
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
	// A negative node count once reached a whole experiment, which panicked,
	// seed 0 once ran an experiment as seed 42, and a job too large to
	// finish or fit in memory ran until the runtime ran out of it.
	for _, args := range [][]string{
		{"-exp", "fig3", "-nodes", "-4"}, {"-exp", "tables", "-rounds", "-4"}, {"-exp", "fig1", "-seed", "0"},
		{"-nodes", "1099511627776"}, {"-exp", "fig3", "-nodes", "4097"}, {"-nodes", "8", "-rounds", "60001"},
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
