package main

import (
	"strings"
	"testing"

	"repro/internal/cli/clitest"
)

// TestGolden pins stdout byte for byte for one command line per mode and
// code path: the round engine under each trace and policy family, dead-node
// dropout, a rejoin rule, the event-driven engine, and the grid search.
// -telemetry and -audit write to stderr only, and an audit violation would
// fail the run.
func TestGolden(t *testing.T) {
	for _, g := range []struct {
		name string
		args []string
	}{
		{"single", []string{"-nodes", "8", "-rounds", "12", "-period", "6"}},
		{"markov-hysteresis", []string{"-trace", "markov", "-policy", "hysteresis", "-nodes", "8", "-rounds", "12"}},
		{"csv-threshold", []string{"-trace", "csv", "-tracefile", "testdata/trace.csv", "-policy", "threshold", "-minsoc", "0.3", "-nodes", "8", "-rounds", "12"}},
		{"mpc-dropdead", []string{"-policy", "mpc", "-nodes", "8", "-rounds", "12", "-period", "6", "-cutoff", "0.2", "-idle", "0.1", "-dropdead"}},
		{"mpc-persist", []string{"-policy", "mpc-persist", "-fhorizon", "4", "-nodes", "8", "-rounds", "12", "-period", "6", "-gt", "2", "-gs", "1"}},
		{"rejoin-catchup", []string{"-nodes", "8", "-rounds", "12", "-period", "6", "-cutoff", "0.3", "-idle", "0.25", "-dropdead", "-rejoin", "catchup"}},
		{"async", []string{"-async", "-telemetry", "-audit", "-nodes", "8", "-rounds", "24", "-period", "6", "-cutoff", "0.25", "-idle", "0.2"}},
		{"async-mpc", []string{"-async", "-policy", "mpc", "-fnoise", "0.3", "-nodes", "8", "-rounds", "24", "-period", "6", "-cutoff", "0.25", "-idle", "0.2"}},
		{"grid-fixed-budget", []string{"-grid", "-audit", "-trace", "constant", "-peak", "0", "-nodes", "8", "-rounds", "4"}},
		{"grid-markov", []string{"-grid", "-trace", "markov", "-nodes", "8", "-rounds", "4", "-seed", "42"}},
		{"grid-csv", []string{"-grid", "-trace", "csv", "-tracefile", "testdata/trace.csv", "-nodes", "8", "-rounds", "4"}},
	} {
		clitest.Golden(t, run, g.name, g.args...)
	}
}

// TestFlagTable sets every flag of the table once where it does not apply
// (a usage error) and once where it does (a run that succeeds), on a tiny
// fleet.
func TestFlagTable(t *testing.T) {
	const csv = "testdata/trace.csv"
	cases := map[string]struct {
		value         string
		without, with []string // context where the flag does not apply, and where it does
	}{
		"nodes":     {"8", nil, nil},
		"rounds":    {"2", nil, nil},
		"seed":      {"0", []string{"-grid"}, nil},
		"trace":     {"csv", nil, []string{"-tracefile", csv}},
		"tracefile": {csv, nil, []string{"-trace", "csv"}},
		"peak":      {"2", []string{"-trace", "csv", "-tracefile", csv}, nil},
		"period":    {"6", []string{"-trace", "markov"}, []string{"-trace", "constant", "-policy", "mpc"}},
		"async":     {"true", []string{"-policy", "mpc-persist"}, nil},
		"degree":    {"4", []string{"-grid"}, nil},
		"eval":      {"1", []string{"-grid"}, nil},
		"capacity":  {"6", []string{"-grid"}, nil},
		"initsoc":   {"0.8", []string{"-grid"}, nil},
		"cutoff":    {"0.1", []string{"-grid"}, []string{"-async"}},
		"idle":      {"0.1", []string{"-grid"}, nil},
		"policy":    {"threshold", []string{"-grid"}, nil},
		"gt":        {"2", []string{"-grid"}, nil},
		"gs":        {"1", nil, []string{"-gt", "2"}},
		"dropdead":  {"true", []string{"-async"}, nil},
		"rejoin":    {"restore", nil, []string{"-dropdead"}},
		"minsoc":    {"0.3", nil, []string{"-policy", "threshold"}},
		"low":       {"0.1", nil, []string{"-policy", "hysteresis"}},
		"high":      {"0.5", nil, []string{"-policy", "hysteresis"}},
		"exponent":  {"2", []string{"-policy", "threshold"}, nil},
		"fhorizon":  {"4", nil, []string{"-policy", "mpc-persist"}},
		"fnoise":    {"0.2", []string{"-policy", "mpc-persist"}, []string{"-policy", "mpc"}},
		"events":    {"TMP", nil, []string{"-telemetry"}},
		"lr":        {"0.1", nil, nil},
		"batch":     {"8", nil, nil},
		"steps":     {"2", nil, nil},
	}
	// Flags that apply everywhere are refused at a value they do not take.
	bad := map[string]string{"nodes": "0", "rounds": "0", "lr": "0", "batch": "0", "steps": "0"}
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
		set := "-" + flag + "=" + tc.value
		tiny := []string{"-nodes", "8", "-rounds", "2"}
		if v, ok := bad[flag]; ok {
			clitest.Exit(t, run, 2, append(tiny, "-"+flag+"="+v)...)
		} else {
			clitest.Exit(t, run, 2, append(append(tiny, tc.without...), set)...)
		}
		clitest.Exit(t, run, 0, append(append(tiny, tc.with...), set)...)
	}
}

// TestUsageErrors: what is not a flag run is refused with exit status 2
// before anything runs, in every mode.
func TestUsageErrors(t *testing.T) {
	clitest.Exit(t, run, 0, "-h")
	clitest.Exit(t, run, 2, "-nodes", "8", "extra", "-rounds", "2")
	clitest.Exit(t, run, 2, "-nosuchflag")
	clitest.Exit(t, run, 2, "-policy", "bogus")
	clitest.Exit(t, run, 2, "-dropdead", "-rejoin", "bogus")
	clitest.Exit(t, run, 2, "-trace", "bogus")
	clitest.Exit(t, run, 2, "-grid", "-async")
	// Each of these once ran: the grid as seed 42 or as "0 nodes" over a
	// 48-node world, and single runs until a world was built.
	for _, args := range [][]string{
		{"-grid", "-seed", "0"},
		{"-grid", "-nodes", "0"},
		{"-grid", "-rounds", "0"},
		{"-nodes", "0"},
		{"-async", "-rounds", "0"},
	} {
		if code, out := clitest.Exec(t, run, args...); code != 2 || out != "" {
			t.Errorf("%q: exit %d, want 2, and stdout %q", args, code, out)
		}
	}
	// Each of these once ran as "final round only" or as the grid's
	// default, or failed with exit 1 only after the world was built.
	for _, args := range [][]string{
		{"-eval", "-1"},
		{"-async", "-eval", "-3"},
		{"-batch", "0"},
		{"-async", "-steps", "0"},
		{"-grid", "-batch", "0"},
		{"-grid", "-steps", "0"},
		{"-degree", "0"},
		{"-degree", "8"},
		{"-async", "-degree", "9"},
		{"-lr", "0"},
		{"-lr", "NaN"},
		{"-async", "-lr", "+Inf"},
		{"-grid", "-lr", "-1"},
		{"-capacity", "-1"},
		{"-async", "-capacity", "+Inf"},
		{"-initsoc", "1.5"},
		{"-async", "-initsoc", "-0.1"},
		{"-cutoff", "1"},
		{"-async", "-cutoff", "NaN"},
		{"-idle", "-1"},
		{"-async", "-idle", "+Inf"},
	} {
		args = append([]string{"-nodes", "8", "-rounds", "2"}, args...)
		if code, out := clitest.Exec(t, run, args...); code != 2 || out != "" {
			t.Errorf("%q: exit %d, want 2, and stdout %q", args, code, out)
		}
	}
	// harvest.Constant is a literal, so the CLI checks -peak itself: a NaN
	// peak once ran to "harvested NaN Wh" and picked a best Γ from NaNs.
	for _, mode := range []string{"", "-async", "-grid"} {
		for _, peak := range []string{"NaN", "+Inf", "-1"} {
			for _, trace := range []string{"diurnal", "constant", "markov"} {
				args := []string{"-nodes", "8", "-rounds", "2", "-trace", trace, "-peak", peak}
				if mode != "" {
					args = append(args, mode)
				}
				clitest.Exit(t, run, 2, args...)
			}
		}
	}
}
