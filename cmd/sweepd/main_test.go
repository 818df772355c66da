package main

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cli/clitest"
)

// serveOnce runs the daemon with args on a free loopback port, waits for
// its "serving on" line, interrupts it the way a terminal's ^C does, and
// returns its exit status and that line.
func serveOnce(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, w := io.Pipe()
	code := make(chan int, 1)
	go func() {
		code <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), w, io.Discard)
		w.Close()
	}()
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		return <-code, "" // it exited without serving
	}
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, out)
	select {
	case c := <-code:
		return c, line
	case <-time.After(10 * time.Second):
		t.Fatalf("%q: still serving 10 s after an interrupt", args)
		return 0, ""
	}
}

var servingLine = regexp.MustCompile(`^sweepd: serving on 127\.0\.0\.1:\d+ \(cache (in-memory|\S+), \d+ workers\)\n$`)

// TestFlagTable sets every flag of the table once to a value it does not
// take (a usage error, before anything listens) and once to one it takes
// (a daemon that serves until interrupted, then exits 0).
func TestFlagTable(t *testing.T) {
	cases := map[string]struct {
		without, with []string
	}{
		"mem":     {[]string{"-mem", "-5"}, []string{"-mem", "8"}},
		"workers": {[]string{"-workers", "-3"}, []string{"-workers", "1"}},
	}
	var flags []string
	for _, r := range rules(new(int), new(int)) {
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
		if code, line := serveOnce(t, tc.without...); code != 2 || line != "" {
			t.Errorf("%q: exit %d after serving line %q, want exit 2 before serving", tc.without, code, line)
		}
		if code, line := serveOnce(t, tc.with...); code != 0 || !servingLine.MatchString(line) {
			t.Errorf("%q: exit %d after serving line %q", tc.with, code, line)
		}
	}
	if code, line := serveOnce(t, "-workers", "3", "-cache", filepath.Join(t.TempDir(), "cells")); code != 0 ||
		!servingLine.MatchString(line) || !strings.HasSuffix(line, "cells, 3 workers)\n") {
		t.Errorf("-cache: exit %d after serving line %q", code, line)
	}
}

func TestUsageErrors(t *testing.T) {
	clitest.Exit(t, run, 0, "-h")
	clitest.Exit(t, run, 2, "extra")
	clitest.Exit(t, run, 2, "-mem", "lots")
	clitest.Exit(t, run, 1, "-addr", "127.0.0.1:-1") // a listen failure is a run failure, not a usage error
}
