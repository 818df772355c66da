package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

func TestMillionNode(t *testing.T) {
	clitest.Line(t, run, "final fleet: mean SoC 0.312, min SoC 0.118, depleted 0/1000", "-nodes", "1000", "-days", "1")
	clitest.Exit(t, run, 2, "-nodes", "1000", "extra")
}
