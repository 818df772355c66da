package main

import (
	"strings"
	"testing"

	"repro/internal/cli/clitest"
	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/sweep"
)

// TestGolden pins stdout byte for byte for Figure 3 and the memoized
// harvest Γ search, run locally.
func TestGolden(t *testing.T) {
	clitest.Golden(t, run, "figure3", "-nodes", "12", "-rounds", "4", "-degrees", "4")
	clitest.Golden(t, run, "gamma-cache", "-job", "gamma", "-nodes", "8", "-rounds", "4", "-cache", "TMP")
}

// TestFigure3Cache runs Figure 3 through -cache twice: the first run
// fills sixteen cells, the second is served all sixteen, and both print
// what the uncached run prints, plus the sweep line. -workers alone runs
// the cells through the scheduler too.
func TestFigure3Cache(t *testing.T) {
	args := []string{"-nodes", "12", "-rounds", "4", "-degrees", "4"}
	_, plain := clitest.Exec(t, run, args...)
	cached := append(args, "-cache", t.TempDir())
	for _, sweepLine := range []string{
		"sweep: cells=16 hits=0 misses=16 shared=0\n",
		"sweep: cells=16 hits=16 misses=0 shared=0\n",
	} {
		if code, got := clitest.Exec(t, run, cached...); code != 0 || got != plain+sweepLine {
			t.Errorf("%q: exit %d, want the uncached output and %q, got:\n%s", cached, code, sweepLine, got)
		}
	}
	clitest.Line(t, run, "sweep: cells=16 hits=0 misses=16 shared=0", append(args, "-workers", "1")...)
}

// serve starts an in-memory sweep daemon on a loopback port.
func serve(t *testing.T) string {
	srv, err := sweep.NewServer("127.0.0.1:0", sweep.NewMemStore(0), par.NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	experiments.RegisterSweepHandlers(srv)
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// TestFlagTable sets every flag of the table once where it does not apply
// (a usage error) and once where it does (a run that succeeds): the
// server-only flags against a loopback daemon.
func TestFlagTable(t *testing.T) {
	addr := serve(t)
	clitest.Exit(t, run, 0, "-server", addr, "-job", "gamma", "-nodes", "8", "-rounds", "2")
	cases := map[string]struct {
		without, with []string
	}{
		"nodes":           {[]string{"-job", "gamma", "-nodes", "0"}, []string{"-job", "gamma", "-nodes", "12"}},
		"rounds":          {[]string{"-job", "gamma", "-rounds", "0"}, []string{"-job", "gamma", "-rounds", "1"}},
		"seed":            {[]string{"-job", "gamma", "-seed", "0"}, []string{"-job", "gamma", "-seed", "7"}},
		"cache":           {[]string{"-server", addr, "-job", "gamma", "-cache", "TMP"}, []string{"-job", "gamma", "-cache", "TMP"}},
		"workers":         {[]string{"-server", addr, "-job", "gamma", "-workers", "1"}, []string{"-job", "gamma", "-workers", "1"}},
		"expect-all-hits": {[]string{"-job", "gamma", "-expect-all-hits"}, []string{"-server", addr, "-job", "gamma", "-expect-all-hits"}},
		"progress":        {[]string{"-job", "gamma", "-progress"}, []string{"-server", addr, "-job", "degree", "-degrees", "4", "-progress"}},
		"degrees":         {[]string{"-job", "gamma", "-degrees", "4"}, []string{"-degrees", "4"}},
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
		tiny := []string{"-nodes", "8", "-rounds", "2"}
		clitest.Exit(t, run, 2, append(tiny, tc.without...)...)
		clitest.Exit(t, run, 0, append(tiny, tc.with...)...)
	}
}

func TestUsageErrors(t *testing.T) {
	clitest.Exit(t, run, 0, "-h")
	clitest.Exit(t, run, 2, "-nodes", "8", "extra", "-rounds", "2")
	clitest.Exit(t, run, 2, "-degrees", "4,x")
	// Each of these once ran: seed 0 as seed 42, a zero scale as the
	// default one, negative workers as GOMAXPROCS, or built a world before
	// failing on a zero degree.
	for _, args := range [][]string{
		{"-job", "gamma", "-seed", "0"},
		{"-job", "gamma", "-nodes", "0"},
		{"-job", "gamma", "-rounds", "0"},
		{"-job", "gamma", "-workers", "-3"},
		{"-job", "figure3", "-degrees", "0"},
		{"-job", "degree", "-degrees", "4,0"},
	} {
		if code, out := clitest.Exec(t, run, args...); code != 2 || out != "" {
			t.Errorf("%q: exit %d, want 2, and stdout %q", args, code, out)
		}
	}
}
