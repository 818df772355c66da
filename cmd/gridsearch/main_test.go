package main

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/cli/clitest"
)

// TestGolden pins stdout byte for byte for Figure 3, the memoized harvest
// Γ search and each extension table, run locally.
func TestGolden(t *testing.T) {
	clitest.Golden(t, run, "figure3", "-nodes", "12", "-rounds", "4", "-degrees", "4")
	clitest.Golden(t, run, "gamma-cache", "-job", "gamma", "-nodes", "8", "-rounds", "4", "-cache", "TMP")
	for _, job := range []string{"harvest", "brownout", "rejoin", "forecast", "async"} {
		clitest.Golden(t, run, job, "-job", job, "-nodes", "8", "-rounds", "4")
	}
}

// TestPaperJobsMatchFigures: each paper table and figure job prints its
// section, or for tables Tables 1-4 and the headline, of cmd/figures'
// golden at the same scale, byte for byte; figure3 then adds its tuned Γ
// per degree.
func TestPaperJobsMatchFigures(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "figures", "testdata", "tiny.golden"))
	if err != nil {
		t.Fatal(err)
	}
	body, _, _ := strings.Cut(string(golden), "\nCSV series written to ")
	sections := map[string]string{}
	for _, chunk := range strings.Split(body, "\n===== ")[1:] {
		name, text, _ := strings.Cut(chunk, " =====\n")
		sections[name] = text
	}
	tuned := regexp.MustCompile(`^(tuned for \d+-regular: Γtrain=\d Γsync=\d\n){3}$`)
	for job, names := range map[string][]string{
		"figure1": {"Figure 1"}, "figure2": {"Figure 2"}, "figure3": {"Figure 3"}, "figure4": {"Figure 4"},
		"figure5": {"Figure 5"}, "figure6": {"Figure 6"}, "figure7": {"Figure 7"},
		"tables": {"Table 1", "Table 2", "Table 3", "Table 4", "Headline"},
	} {
		var want strings.Builder
		for _, name := range names {
			if sections[name] == "" {
				t.Fatalf("no section %q in tiny.golden", name)
			}
			want.WriteString(sections[name])
		}
		code, got := clitest.Exec(t, run, "-job", job, "-nodes", "12", "-rounds", "4")
		rest, ok := strings.CutPrefix(got, want.String())
		if code != 0 || !ok || rest != "" && !(job == "figure3" && tuned.MatchString(rest)) {
			t.Errorf("-job %s: exit %d, stdout is not %q of tiny.golden:\n%s", job, code, names, got)
		}
	}
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

// TestConcurrentProcesses runs the harvest Γ search twice at once on one
// cold directory, each run with its own store as two processes would
// have. Both print what the uncached run prints, whoever computed which
// cell, and a third run is served every cell.
func TestConcurrentProcesses(t *testing.T) {
	args := []string{"-job", "gamma", "-nodes", "8", "-rounds", "4"}
	_, plain := clitest.Exec(t, run, args...)
	cached := append(args, "-cache", t.TempDir())
	outs := make([]string, 2)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var stdout bytes.Buffer
			if code := run(cached, &stdout, io.Discard); code != 0 {
				t.Errorf("run %d: exit %d", i, code)
			}
			outs[i] = stdout.String()
		}()
	}
	wg.Wait()
	sweepLine := regexp.MustCompile(`^sweep: cells=80 hits=\d+ misses=\d+ shared=0\n$`)
	for i, out := range outs {
		if rest, ok := strings.CutPrefix(out, plain); !ok || !sweepLine.MatchString(rest) {
			t.Errorf("run %d: want the uncached output and a sweep line over 80 cells, got:\n%s", i, out)
		}
	}
	clitest.Line(t, run, "sweep: cells=80 hits=80 misses=0 shared=0", append(cached, "-expect-all-hits")...)
}

// TestExpectAllHits: a cold directory fails the check after printing its
// tables, a warm one passes it.
func TestExpectAllHits(t *testing.T) {
	args := []string{"-job", "gamma", "-nodes", "8", "-rounds", "2", "-cache", t.TempDir(), "-expect-all-hits"}
	if code, out := clitest.Exec(t, run, args...); code != 1 || !strings.Contains(out, "sweep: cells=80 hits=0 misses=80 shared=0\n") {
		t.Errorf("cold %q: exit %d, want 1 after the tables, got:\n%s", args, code, out)
	}
	clitest.Line(t, run, "sweep: cells=80 hits=80 misses=0 shared=0", args...)
}

// TestFlagTable sets every flag of the table once where it does not apply
// (a usage error) and once where it does (a run that succeeds).
func TestFlagTable(t *testing.T) {
	warm := t.TempDir()
	clitest.Exit(t, run, 0, "-job", "gamma", "-nodes", "8", "-rounds", "2", "-cache", warm)
	cases := map[string]struct {
		without, with []string
	}{
		"nodes":           {[]string{"-job", "gamma", "-nodes", "0"}, []string{"-job", "gamma", "-nodes", "12"}},
		"rounds":          {[]string{"-job", "gamma", "-rounds", "0"}, []string{"-job", "gamma", "-rounds", "1"}},
		"seed":            {[]string{"-job", "gamma", "-seed", "0"}, []string{"-job", "gamma", "-seed", "7"}},
		"workers":         {[]string{"-job", "gamma", "-workers", "-1"}, []string{"-job", "gamma", "-workers", "1"}},
		"expect-all-hits": {[]string{"-job", "gamma", "-expect-all-hits"}, []string{"-job", "gamma", "-cache", warm, "-expect-all-hits"}},
		"job":             {[]string{"-job", "bogus"}, []string{"-job", "harvest"}},
		"cache":           {[]string{"-job", "harvest", "-cache", t.TempDir()}, []string{"-job", "gamma", "-cache", warm}},
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
	// default one, negative workers as GOMAXPROCS, a job too large to
	// finish or fit in memory, or built a world before failing on a degree
	// the graph cannot have. An unknown job once exited 1. A job whose
	// cells are not keyed counts every run a cache miss, so -cache and
	// -expect-all-hits would do nothing or always fail there.
	for _, args := range [][]string{
		{"-job", "gamma", "-seed", "0"},
		{"-job", "gamma", "-nodes", "0"},
		{"-job", "gamma", "-rounds", "0"},
		{"-job", "gamma", "-workers", "-3"},
		{"-job", "gamma", "-expect-all-hits"},
		{"-job", "bogus"},
		{"-job", "Figure3"},
		{"-job", "harvest", "-expect-all-hits"},
		{"-job", "tables", "-cache", t.TempDir(), "-expect-all-hits"},
		{"-job", "rejoin", "-degrees", "4"},
		{"-job", "async", "-nodes", "5"},
		{"-job", "gamma", "-nodes", "4097"},
		{"-job", "gamma", "-nodes", "1099511627776"},
		{"-job", "gamma", "-nodes", "8", "-rounds", "60001"},
		{"-job", "figure3", "-degrees", "0"},
		{"-job", "degree", "-degrees", "4,0"},
		{"-job", "degree", "-nodes", "8", "-degrees", "4,8"},
		{"-job", "degree", "-degrees", "2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2"},
	} {
		if code, out := clitest.Exec(t, run, args...); code != 2 || out != "" {
			t.Errorf("%q: exit %d, want 2, and stdout %q", args, code, out)
		}
	}
	// An oversized job, one whose 6-regular topology 5 nodes cannot hold
	// (which once made the directory, then failed), and a job whose cells
	// are not keyed are refused before the cache directory is made.
	dir := filepath.Join(t.TempDir(), "cache")
	for _, args := range [][]string{
		{"-job", "gamma", "-nodes", "4097"},
		{"-job", "gamma", "-nodes", "1099511627776"},
		{"-job", "gamma", "-nodes", "5"},
		{"-job", "harvest"},
	} {
		if code, out := clitest.Exec(t, run, append(args, "-cache", dir)...); code != 2 || out != "" {
			t.Errorf("%q: exit %d, want 2, and stdout %q", args, code, out)
		}
		if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%q: the cache directory was made (%v)", args, err)
		}
	}
}
