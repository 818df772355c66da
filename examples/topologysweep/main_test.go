package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

func TestTopologySweep(t *testing.T) {
	clitest.Line(t, run, "complete    1.0000        66.00        0.00       ")
	clitest.Exit(t, run, 2, "extra")
}
