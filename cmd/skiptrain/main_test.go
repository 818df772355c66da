package main

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/cli/clitest"
	"repro/internal/experiments"
)

// TestGolden pins stdout byte for byte for every algorithm, both datasets,
// the seed 0 that Options.Defaults would turn into 42, and both engines.
func TestGolden(t *testing.T) {
	tiny := []string{"-nodes", "8", "-rounds", "8"}
	for name, args := range map[string][]string{
		"dpsgd":           {"-algo", "dpsgd"},
		"skiptrain":       {"-gt", "2", "-gs", "1"},
		"constrained":     {"-algo", "constrained"},
		"greedy":          {"-algo", "greedy"},
		"allreduce":       {"-algo", "allreduce"},
		"async":           {"-async", "-algo", "dpsgd", "-eval", "2"},
		"async-skiptrain": {"-async", "-eval", "2"},
		"femnist":         {"-dataset", "femnist"},
		"seed0":           {"-seed", "0"},
	} {
		clitest.Golden(t, run, name, append(args, tiny...)...)
	}
}

// TestHarvestGolden pins stdout byte for byte for one fleet command line
// per mode and code path: the round engine under each trace and policy
// family, dead-node dropout, a rejoin rule, and the event-driven engine.
// -telemetry and -audit write to stderr only, and an audit violation would
// fail the run.
func TestHarvestGolden(t *testing.T) {
	fleet := []string{"-algo", "dpsgd", "-trace", "diurnal", "-eval", "12"}
	for name, args := range map[string][]string{
		"single":            {"-nodes", "8", "-rounds", "12", "-period", "6"},
		"markov-hysteresis": {"-trace", "markov", "-policy", "hysteresis", "-nodes", "8", "-rounds", "12"},
		"csv-threshold":     {"-trace", "csv", "-tracefile", "testdata/trace.csv", "-policy", "threshold", "-minsoc", "0.3", "-nodes", "8", "-rounds", "12"},
		"mpc-dropdead":      {"-policy", "mpc", "-nodes", "8", "-rounds", "12", "-period", "6", "-cutoff", "0.2", "-idle", "0.1", "-dropdead"},
		"mpc-persist":       {"-policy", "mpc-persist", "-fhorizon", "4", "-nodes", "8", "-rounds", "12", "-period", "6", "-algo", "skiptrain", "-gt", "2", "-gs", "1"},
		"rejoin-catchup":    {"-nodes", "8", "-rounds", "12", "-period", "6", "-cutoff", "0.3", "-idle", "0.25", "-dropdead", "-rejoin", "catchup"},
		"async":             {"-async", "-telemetry", "-audit", "-nodes", "8", "-rounds", "24", "-period", "6", "-cutoff", "0.25", "-idle", "0.2"},
		"async-mpc":         {"-async", "-policy", "mpc", "-fnoise", "0.3", "-nodes", "8", "-rounds", "24", "-period", "6", "-cutoff", "0.25", "-idle", "0.2"},
	} {
		clitest.Golden(t, run, "harvest-"+name, append(fleet, args...)...)
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

// TestHarvestSingleRunIsATableCell: a fleet run at the brown-out table's
// settings is that table's cell, and its final line prints what the row
// reports — the readout and the averaged-model column — on both regimes,
// with dead nodes routed through and dropped; with -async it is the
// async-harvest table's event-engine cell, whose steps and energy ledger
// the final line prints as well.
func TestHarvestSingleRunIsATableCell(t *testing.T) {
	o := experiments.Options{Nodes: 12, Rounds: 8}
	brownout, err := experiments.TableBrownout(o)
	if err != nil {
		t.Fatal(err)
	}
	asyncRows, err := experiments.TableAsyncHarvest(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(brownout) != 4 || len(asyncRows) != 4 {
		t.Fatalf("TableBrownout has %d rows and TableAsyncHarvest %d, want 4 each", len(brownout), len(asyncRows))
	}
	traces := map[string][]string{
		"diurnal": {"-trace", "diurnal", "-peak", "1.2", "-period", "4"},
		"markov":  {"-trace", "markov", "-peak", "1.4"},
	}
	cell := func(regime string, mode ...string) []string {
		args := append([]string{"-algo", "dpsgd", "-nodes", "12", "-rounds", "8", "-capacity", "10", "-initsoc", "0.6", "-cutoff", "0.25",
			"-idle", "0.2", "-policy", "threshold", "-minsoc", "0.35"}, traces[regime]...)
		return append(args, mode...)
	}
	check := func(args []string, row string, want ...string) {
		t.Helper()
		code, out := clitest.Exec(t, run, args...)
		for _, w := range want {
			if code != 0 || !strings.Contains(out, w) {
				t.Errorf("%q: exit %d, no %q (the %s row) in:\n%s", args, code, w, row, out)
			}
		}
	}
	for _, r := range brownout {
		var mode []string
		if r.Mode == "drop-and-renormalize" {
			mode = []string{"-dropdead"}
		}
		check(cell(r.Regime, mode...), r.Regime+"/"+r.Mode, fmt.Sprintf("\nfinal: %.2f%% | avg model %s | ", r.FinalAcc, r.Model))
	}
	events := 0
	for _, r := range asyncRows {
		if r.Engine != "async-event" {
			continue
		}
		events++
		check(cell(r.Regime, "-async"), r.Regime+"/"+r.Engine,
			fmt.Sprintf("\nfinal: %.2f%% | avg model %s | %d steps (%d trained), ", r.FinalAcc, r.Model, r.Steps, r.Trained),
			fmt.Sprintf(" %.1f%% node-time down | harvested %.4f Wh, consumed %.4f Wh, ", r.BrownoutShare, r.HarvestedWh, r.ConsumedWh))
	}
	if events != 2 {
		t.Errorf("TableAsyncHarvest has %d async-event rows, want 2", events)
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

// flagCase sets a flag to value once where it does not apply (without; nil:
// it applies everywhere) and once where it does (with).
type flagCase struct {
	value         string
	without, with []string
}

const traceCSV = "testdata/trace.csv"

var (
	staticArgs = []string{"-algo", "dpsgd"}
	fleetArgs  = []string{"-algo", "dpsgd", "-trace", "diurnal"}
	// runFlags are the table's flags that a run without -trace takes too.
	runFlags = map[string]flagCase{
		"nodes":   {"8", nil, nil},
		"rounds":  {"2", nil, nil},
		"algo":    {"dpsgd", nil, nil},
		"dataset": {"femnist", nil, nil},
		"degree":  {"4", nil, nil},
		"batch":   {"8", nil, nil},
		"steps":   {"2", nil, nil},
		"lr":      {"0.1", nil, nil},
		"eval":    {"1", nil, []string{"-async"}},
		"gt":      {"3", []string{"-algo", "dpsgd"}, []string{"-algo", "constrained"}},
		"gs":      {"2", []string{"-algo", "greedy"}, []string{"-async"}},
		"async":   {"true", []string{"-algo", "greedy"}, nil},
		"events":  {"TMP", staticArgs, []string{"-telemetry"}},
	}
	// fleetFlags are the table's flags of a harvest-coupled run.
	fleetFlags = map[string]flagCase{
		"trace":     {"markov", []string{"-algo", "constrained"}, []string{"-algo", "dpsgd"}},
		"tracefile": {traceCSV, fleetArgs, []string{"-algo", "dpsgd", "-trace", "csv"}},
		"peak":      {"2", []string{"-algo", "dpsgd", "-trace", "csv", "-tracefile", traceCSV}, fleetArgs},
		"period":    {"6", []string{"-algo", "dpsgd", "-trace", "markov"}, []string{"-algo", "dpsgd", "-trace", "constant", "-policy", "mpc"}},
		"policy":    {"threshold", staticArgs, fleetArgs},
		"capacity":  {"6", staticArgs, fleetArgs},
		"initsoc":   {"0.8", staticArgs, fleetArgs},
		"cutoff":    {"0.1", staticArgs, append([]string{"-async"}, fleetArgs...)},
		"idle":      {"0.1", staticArgs, fleetArgs},
		"dropdead":  {"true", append([]string{"-async"}, fleetArgs...), fleetArgs},
		"rejoin":    {"restore", fleetArgs, append([]string{"-dropdead"}, fleetArgs...)},
		"minsoc":    {"0.3", fleetArgs, append([]string{"-policy", "threshold"}, fleetArgs...)},
		"low":       {"0.1", fleetArgs, append([]string{"-policy", "hysteresis"}, fleetArgs...)},
		"high":      {"0.5", fleetArgs, append([]string{"-policy", "hysteresis"}, fleetArgs...)},
		"exponent":  {"2", append([]string{"-policy", "threshold"}, fleetArgs...), fleetArgs},
		"fhorizon":  {"4", fleetArgs, append([]string{"-policy", "mpc-persist"}, fleetArgs...)},
		"fnoise":    {"0.2", append([]string{"-policy", "mpc-persist"}, fleetArgs...), append([]string{"-policy", "mpc"}, fleetArgs...)},
	}
)

// TestFlagTable sets every flag of the table that a run without -trace
// takes once where it does not apply or to a value it does not take (a
// usage error with empty stdout), and once where it does (a run that
// succeeds), on a tiny fleet. Every flag of the table is a case of it or of
// TestHarvestFlagTable.
func TestFlagTable(t *testing.T) {
	flags := tableFlags()
	if n := len(runFlags) + len(fleetFlags); len(flags) != n {
		t.Errorf("flag table covers %d flags, the tests %d", len(flags), n)
	}
	for _, flag := range flags {
		if _, ok := runFlags[flag]; !ok {
			if _, ok := fleetFlags[flag]; !ok {
				t.Errorf("no test case for table flag -%s", flag)
			}
		}
	}
	// Each flag is also refused at a value it does not take, in a context
	// where it applies: NaN and ±Inf fail every range, and a Γ period past
	// MaxInt once panicked in the readout.
	checkFlags(t, runFlags, map[string][]string{
		"nodes": {"0"}, "rounds": {"0"}, "algo": {"async", "async-skiptrain", "bogus"}, "dataset": {"bogus"}, "degree": {"1"},
		"batch": {"0"}, "steps": {"0"}, "lr": {"0", "NaN", "+Inf"}, "eval": {"-1"},
		"gt": {"-1", "9223372036854775807"}, "gs": {"-2", "9223372036854775807"},
	})
}

// TestHarvestFlagTable is TestFlagTable for the fleet's flags.
func TestHarvestFlagTable(t *testing.T) {
	checkFlags(t, fleetFlags, map[string][]string{
		"trace": {"bogus", "csv"}, "peak": {"-1", "NaN", "+Inf"}, "period": {"1", "0"}, "policy": {"bogus"},
		"capacity": {"-1", "NaN", "+Inf"}, "initsoc": {"1.5", "NaN"}, "cutoff": {"1", "NaN"}, "idle": {"-1", "NaN", "+Inf"},
		"rejoin": {"bogus"}, "minsoc": {"2", "-0.1", "NaN"}, "low": {"0.5", "NaN", "-0.1"}, "high": {"0.1", "NaN", "1.1"},
		"exponent": {"-1", "0", "NaN", "+Inf"}, "fhorizon": {"-1"}, "fnoise": {"-1", "NaN", "+Inf"},
	})
}

// tableFlags lists the flag table's flag names in its order.
func tableFlags() []string {
	var flags []string
	for _, r := range new(config).rules() {
		flags = append(flags, strings.Fields(r.Flags)...)
	}
	return flags
}

// checkFlags runs each case of the table's flags that are keys of cases: a
// flag is refused where it does not apply and at each of its bad values,
// and runs where it applies.
func checkFlags(t *testing.T, cases map[string]flagCase, bad map[string][]string) {
	t.Helper()
	seen := 0
	for _, flag := range tableFlags() {
		tc, ok := cases[flag]
		if !ok {
			continue
		}
		seen++
		tiny := []string{"-nodes", "8", "-rounds", "2"}
		if tc.without != nil {
			refused(t, append(append(tiny, tc.without...), "-"+flag+"="+tc.value)...)
		} else if len(bad[flag]) == 0 {
			t.Errorf("-%s applies everywhere, and the test refuses no value of it", flag)
		}
		for _, v := range bad[flag] {
			refused(t, append(append(tiny, tc.with...), "-"+flag+"="+v)...)
		}
		clitest.Exit(t, run, 0, append(append(tiny, tc.with...), "-"+flag+"="+tc.value)...)
	}
	if seen != len(cases) {
		t.Errorf("%d of the test's %d flags are in the flag table", seen, len(cases))
	}
}

// TestUsageErrors: what is not a flag run is refused with exit status 2
// and empty stdout before anything runs, on either engine and setting.
func TestUsageErrors(t *testing.T) {
	clitest.Exit(t, run, 0, "-h")
	// A job too large to finish or fit in memory once ran until the runtime
	// ran out of it, an unknown -algo or -dataset once exited 1, the whole
	// paper experiments moved to gridsearch -job, and the harvest Γ search
	// (once -grid) to gridsearch -job gamma.
	for _, args := range [][]string{
		{"-nodes", "8", "extra", "-rounds", "4"}, {"-nosuchflag"}, {"-exp", "tables"}, {"-grid"},
		{"-nodes", "-4"}, {"-rounds", "-4"}, {"-nodes", "1099511627776"}, {"-nodes", "4097"}, {"-nodes", "8", "-rounds", "60001"},
		{"-async", "-nodes", "1099511627776"}, {"-async", "-rounds", "0"},
		{"-algo", "bogus"}, {"-algo", "DPSGD"}, {"-dataset", "bogus"}, {"-dataset", "cifar10"},
		// The default 6-regular topology does not fit on 5 nodes, nor a
		// 3-regular one on 7: these once generated the data set, then failed.
		{"-nodes", "5"}, {"-nodes", "7", "-degree", "3"},
	} {
		refused(t, args...)
	}
	// Each of these once ran as "final round only", fell back to a default,
	// ran to chance accuracy, or failed with exit 1 only after the world
	// was built.
	for _, args := range [][]string{
		{"-eval", "-1"}, {"-async", "-eval", "-3"}, {"-algo", "greedy", "-eval", "-3"},
		{"-batch", "0"}, {"-async", "-batch", "0"}, {"-steps", "0"}, {"-async", "-steps", "-2"},
		{"-degree", "0"}, {"-degree", "8"}, {"-async", "-degree", "9"},
		{"-gt", "-3"}, {"-gs", "-7"}, {"-algo", "dpsgd", "-gt", "3"}, {"-algo", "greedy", "-gt", "3"},
		{"-algo", "allreduce", "-gs", "2"}, {"-async", "-algo", "dpsgd", "-gt", "3"}, {"-async", "-algo", "allreduce"},
		{"-lr", "NaN"}, {"-lr", "+Inf"}, {"-lr", "-1"}, {"-async", "-lr", "NaN"}, {"-async", "-lr", "+Inf"},
		{"-gt", "9223372036854775807", "-gs", "1"}, {"-algo", "constrained", "-gs", "9223372036854775807"},
	} {
		refused(t, append([]string{"-nodes", "8", "-rounds", "2"}, args...)...)
	}
	// A Γ period of a billion rounds is a valid schedule: the run trains
	// throughout.
	clitest.Exit(t, run, 0, "-nodes", "8", "-rounds", "2", "-gt", "1000000000", "-gs", "1")
}

// TestHarvestUsageErrors is TestUsageErrors for the fleet's flags.
func TestHarvestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		// A fleet flag without -trace, and a fleet under an algorithm whose
		// participation is its own budget or whose aggregation is global.
		{"-capacity", "6"}, {"-policy", "threshold"}, {"-dropdead"}, {"-async", "-cutoff", "0.2"},
		{"-trace", "diurnal", "-algo", "greedy"}, {"-trace", "diurnal", "-algo", "allreduce"},
		{"-trace", "diurnal", "-algo", "dpsgd", "-dropdead", "-rejoin", "bogus"},
		{"-trace", "diurnal", "-algo", "dpsgd", "-async", "-dropdead"},
		{"-trace", "diurnal", "-algo", "dpsgd", "-async", "-capacity", "+Inf"},
		{"-trace", "diurnal", "-algo", "dpsgd", "-async", "-initsoc", "-0.1"},
		{"-trace", "diurnal", "-algo", "dpsgd", "-async", "-cutoff", "NaN"},
		{"-trace", "diurnal", "-algo", "dpsgd", "-async", "-idle", "+Inf"},
		{"-trace", "diurnal", "-algo", "dpsgd", "-async", "-policy", "mpc-persist"},
		{"-trace", "diurnal", "-algo", "skiptrain", "-gt", "9223372036854775807", "-gs", "1"},
		{"-trace", "diurnal", "-algo", "dpsgd", "-policy", "hysteresis", "-low", "0.5", "-high", "0.2"},
		{"-trace", "diurnal", "-algo", "dpsgd", "-period", "1"},
		{"-trace", "diurnal", "-algo", "dpsgd", "-policy", "threshold", "-minsoc", "2"},
		{"-trace", "diurnal", "-algo", "dpsgd", "-exponent", "-1"},
	} {
		refused(t, append([]string{"-nodes", "8", "-rounds", "2"}, args...)...)
	}
	// harvest.Constant is a literal, so the CLI checks -peak itself: a NaN
	// peak once ran to "harvested NaN Wh". A NaN policy knob once built a
	// policy, and -exponent NaN ran at 12.5% participation.
	for _, mode := range []string{"-async=false", "-async"} {
		for _, trace := range []string{"diurnal", "constant", "markov"} {
			for _, knob := range [][]string{{"-peak", "NaN"}, {"-peak", "+Inf"}, {"-peak", "-1"}, {"-exponent", "NaN"}, {"-exponent", "+Inf"},
				{"-policy", "threshold", "-minsoc", "NaN"}, {"-policy", "hysteresis", "-low", "NaN"}, {"-policy", "hysteresis", "-high", "NaN"}} {
				refused(t, append([]string{"-nodes", "8", "-rounds", "2", "-algo", "dpsgd", "-trace", trace, mode}, knob...)...)
			}
		}
		// A dark diurnal or Markov trace once failed with exit 1 after the
		// data set was generated; a dark constant trace is the paper's
		// no-recharge setting.
		refused(t, "-nodes", "8", "-rounds", "2", "-algo", "dpsgd", "-trace", "diurnal", "-peak", "0", mode)
		refused(t, "-nodes", "8", "-rounds", "2", "-algo", "dpsgd", "-trace", "markov", "-peak", "0", mode)
		clitest.Exit(t, run, 0, "-nodes", "8", "-rounds", "2", "-algo", "dpsgd", "-trace", "constant", "-peak", "0", mode)
	}
}

// refused checks that args are a usage error: exit status 2, empty stdout.
func refused(t *testing.T, args ...string) {
	t.Helper()
	if code, out := clitest.Exec(t, run, args...); code != 2 || out != "" {
		t.Errorf("%q: exit %d, want 2, and stdout %q", args, code, out)
	}
}

// asyncNight is the 8-node, 1 500-round diurnal fleet on the event engine.
var asyncNight = []string{"-async", "-algo", "dpsgd", "-trace", "diurnal", "-nodes", "8", "-rounds", "1500", "-cutoff", "0.25", "-idle", "0.2"}

// TestAsyncFleetResumesAfterNight: on the 8-node, 1 500-round diurnal run
// the fleet keeps stepping through the second half of the horizon, and the
// sun does not fill batteries that no node drains: waste stays under 1% of
// arrivals. Sleeping nodes once settled the rest of the horizon at the
// night round their clock's quotient named, never woke, and left a second
// half of no steps and 16 Wh wasted.
func TestAsyncFleetResumesAfterNight(t *testing.T) {
	code, out := clitest.Exec(t, run, append(asyncNight, "-eval", "750")...)
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
		code, out := clitest.Exec(t, run, append(asyncNight, "-eval", every)...)
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
