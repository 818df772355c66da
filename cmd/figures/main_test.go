package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cli/clitest"
)

// TestGolden pins stdout byte for byte at a tiny scale and checks that the
// CSV series land under -out.
func TestGolden(t *testing.T) {
	clitest.Golden(t, run, "tiny", "-nodes", "12", "-rounds", "4", "-out", "TMP")
	dir := filepath.Join(t.TempDir(), "csv")
	clitest.Exit(t, run, 0, "-nodes", "12", "-rounds", "2", "-out", dir)
	if _, err := os.Stat(filepath.Join(dir, "figure4.csv")); err != nil {
		t.Error(err)
	}
}

// TestUsageErrors: a positional argument once ended flag parsing, so
// "-nodes 12 extra -out dir" wrote to ./results; -paper sets the scale
// itself; a non-positive -nodes once panicked after Tables 1 and 2, a
// non-positive -rounds once failed after printing them, and a job too large
// to finish or fit in memory once printed them and ran until killed.
func TestUsageErrors(t *testing.T) {
	clitest.Exit(t, run, 0, "-h")
	clitest.Exit(t, run, 2, "-nodes", "12", "extra", "-out", "TMP")
	clitest.Exit(t, run, 2, "-paper", "-nodes", "12")
	clitest.Exit(t, run, 2, "-paper", "-rounds", "4")
	for _, args := range [][]string{
		{"-nodes", "-3"}, {"-nodes", "0"}, {"-rounds", "-4"}, {"-rounds", "0"}, {"-seed", "0"},
		{"-nodes", "4097"}, {"-nodes", "1099511627776"}, {"-nodes", "8", "-rounds", "60001"},
		// Figures 3, 5 and 6 run 10-regular topologies, which 5 nodes cannot
		// hold: this once printed the first tables, then failed.
		{"-nodes", "5", "-rounds", "2"},
	} {
		if code, out := clitest.Exec(t, run, append(args, "-out", "TMP")...); code != 2 || out != "" {
			t.Errorf("%q: exit %d, want 2, and stdout %q", args, code, out)
		}
	}
}
