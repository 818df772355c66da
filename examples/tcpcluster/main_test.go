package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

func TestTCPCluster(t *testing.T) {
	clitest.Line(t, run, "trajectories identical across transports — the engine is wire-agnostic.")
	clitest.Exit(t, run, 2, "extra")
}
