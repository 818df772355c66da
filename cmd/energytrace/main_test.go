package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

func TestGolden(t *testing.T) {
	clitest.Golden(t, run, "plain")
	clitest.Golden(t, run, "detail", "-detail")
}

func TestUsageErrors(t *testing.T) {
	clitest.Exit(t, run, 0, "-h")
	clitest.Exit(t, run, 2, "detail")
	clitest.Exit(t, run, 2, "-nodes", "8")
}
