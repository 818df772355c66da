package main

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cli/clitest"
	"repro/internal/experiments"
)

// TestGolden pins stdout byte for byte for one command line per mode and
// code path: the round engine under each trace and policy family, dead-node
// dropout, a rejoin rule, and the event-driven engine.
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
	} {
		clitest.Golden(t, run, g.name, g.args...)
	}
}

// TestHarvestSingleRunIsATableCell: a single run at the brown-out table's
// settings is that table's cell, and its final line prints what the row
// reports — the readout and the averaged-model column — on both regimes,
// with dead nodes routed through and dropped.
func TestHarvestSingleRunIsATableCell(t *testing.T) {
	rows, err := experiments.TableBrownout(experiments.Options{Nodes: 12, Rounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("TableBrownout has %d rows, want 4", len(rows))
	}
	traces := map[string][]string{
		"diurnal": {"-trace", "diurnal", "-peak", "1.2", "-period", "4"},
		"markov":  {"-trace", "markov", "-peak", "1.4"},
	}
	for _, r := range rows {
		args := append([]string{"-nodes", "12", "-rounds", "8", "-capacity", "10", "-initsoc", "0.6", "-cutoff", "0.25",
			"-idle", "0.2", "-policy", "threshold", "-minsoc", "0.35"}, traces[r.Regime]...)
		if r.Mode == "drop-and-renormalize" {
			args = append(args, "-dropdead")
		}
		want := fmt.Sprintf("final: %.2f%% | avg model %s | ", r.FinalAcc, r.Model)
		if code, out := clitest.Exec(t, run, args...); code != 0 || !strings.Contains(out, "\n"+want) {
			t.Errorf("%q: exit %d, no line starting %q (the %s/%s row) in:\n%s", args, code, want, r.Regime, r.Mode, out)
		}
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
		"trace":     {"csv", nil, []string{"-tracefile", csv}},
		"tracefile": {csv, nil, []string{"-trace", "csv"}},
		"peak":      {"2", []string{"-trace", "csv", "-tracefile", csv}, nil},
		"period":    {"6", []string{"-trace", "markov"}, []string{"-trace", "constant", "-policy", "mpc"}},
		"async":     {"true", []string{"-policy", "mpc-persist"}, nil},
		"degree":    {"4", nil, nil},
		"eval":      {"1", nil, nil},
		"capacity":  {"6", nil, nil},
		"initsoc":   {"0.8", nil, nil},
		"cutoff":    {"0.1", nil, []string{"-async"}},
		"idle":      {"0.1", nil, nil},
		"policy":    {"threshold", nil, nil},
		"gt":        {"2", nil, nil},
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
	bad := map[string]string{"nodes": "0", "rounds": "0", "lr": "0", "batch": "0", "steps": "0",
		"degree": "1", "eval": "-1", "capacity": "-1", "initsoc": "1.5", "cutoff": "1", "idle": "-1", "policy": "bogus", "gt": "-1"}
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
	// -grid ran the Γ search that gridsearch -job gamma runs. Each of the
	// others once ran: single runs until a world was built, and jobs too
	// large to finish or fit in memory until the runtime ran out of it.
	for _, args := range [][]string{
		{"-grid"},
		{"-nodes", "0"},
		{"-async", "-rounds", "0"},
		{"-nodes", "1099511627776"},
		{"-nodes", "4097"},
		{"-async", "-nodes", "1099511627776"},
		{"-nodes", "8", "-rounds", "60001"},
		// A 1-regular topology, and a 3-regular one on an odd node count,
		// cannot be built: both once built the world, then failed.
		{"-degree", "1"},
		{"-nodes", "7", "-degree", "3"},
	} {
		if code, out := clitest.Exec(t, run, args...); code != 2 || out != "" {
			t.Errorf("%q: exit %d, want 2, and stdout %q", args, code, out)
		}
	}
	// Each of these once ran as "final round only", or failed with exit 1
	// only after the world was built.
	for _, args := range [][]string{
		{"-eval", "-1"},
		{"-async", "-eval", "-3"},
		{"-batch", "0"},
		{"-async", "-steps", "0"},
		{"-degree", "0"},
		{"-degree", "8"},
		{"-async", "-degree", "9"},
		{"-lr", "0"},
		{"-lr", "NaN"},
		{"-async", "-lr", "+Inf"},
		{"-lr", "-1"},
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
	// peak once ran to "harvested NaN Wh".
	for _, mode := range []string{"", "-async"} {
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

// TestAsyncFleetResumesAfterNight: on the 8-node, 1 500-round diurnal run
// the fleet keeps stepping through the second half of the horizon, and the
// sun does not fill batteries that no node drains: waste stays under 1% of
// arrivals. Sleeping nodes once settled the rest of the horizon at the
// night round their clock's quotient named, never woke, and left a second
// half of no steps and 16 Wh wasted.
func TestAsyncFleetResumesAfterNight(t *testing.T) {
	code, out := clitest.Exec(t, run, "-async", "-nodes", "8", "-rounds", "1500", "-cutoff", "0.25", "-idle", "0.2", "-eval", "750")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	var steps []float64 // the fleet's step count at each evaluation: mid-horizon, then the horizon
	var harvested, consumed, wasted float64
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 5 && strings.Trim(f[0], "0123456789") == "":
			n, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				t.Fatalf("evaluation row %q: %v", line, err)
			}
			steps = append(steps, n)
		case strings.HasPrefix(line, "final: "):
			if _, err := fmt.Sscanf(line[strings.Index(line, "harvested"):], "harvested %f Wh, consumed %f Wh, wasted %f Wh", &harvested, &consumed, &wasted); err != nil {
				t.Fatalf("final line %q: %v", line, err)
			}
		}
	}
	if len(steps) != 2 || steps[1] == 0 {
		t.Fatalf("step counts %v, want two evaluations of a fleet that steps:\n%s", steps, out)
	}
	share := (steps[1] - steps[0]) / steps[1]
	t.Logf("last-half step share %.3f, wasted %.4f of %.4f Wh arrived", share, wasted, harvested+wasted)
	if share <= 0.3 {
		t.Errorf("last-half step share %.3f, want > 0.3: the fleet stopped stepping", share)
	}
	if wasted >= 0.01*(harvested+wasted) {
		t.Errorf("wasted %.4f of %.4f Wh arrived, want under 1%%", wasted, harvested+wasted)
	}
}

// TestAsyncEvaluationsLeaveRunUnchanged: how often -async evaluates does
// not change what the run does. The 8-node, 1 500-round diurnal run prints
// the same final line — accuracy, steps, gossips, brown-outs and energy
// ledgers — at -eval 750, 12 and 5. Evaluation ticks once settled every
// battery to their instant, and the run took 19 713, 19 576 and 19 543
// steps.
func TestAsyncEvaluationsLeaveRunUnchanged(t *testing.T) {
	var want string
	for _, every := range []string{"750", "12", "5"} {
		code, out := clitest.Exec(t, run, "-async", "-nodes", "8", "-rounds", "1500", "-cutoff", "0.25", "-idle", "0.2", "-eval", every)
		if code != 0 {
			t.Fatalf("-eval %s: exit %d:\n%s", every, code, out)
		}
		final := out[strings.LastIndex(out, "final: "):]
		if want == "" {
			want = final
		} else if final != want {
			t.Errorf("-eval %s prints %q, -eval 750 %q", every, final, want)
		}
	}
}
