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
// itself.
func TestUsageErrors(t *testing.T) {
	clitest.Exit(t, run, 0, "-h")
	clitest.Exit(t, run, 2, "-nodes", "12", "extra", "-out", "TMP")
	clitest.Exit(t, run, 2, "-paper", "-nodes", "12")
	clitest.Exit(t, run, 2, "-paper", "-rounds", "4")
}
