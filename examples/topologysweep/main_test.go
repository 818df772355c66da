package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

// TestTopologySweep pins the two ends of the sweep. The ring's row scores
// the readout, the mean over the last Γ period: the accuracy at round 48,
// the end of a sync phase, read 52.83.
func TestTopologySweep(t *testing.T) {
	clitest.Line(t, run, "ring (d=2)  0.0128        51.83          1.23          ")
	clitest.Line(t, run, "complete    1.0000        66.00          0.00          ")
	clitest.Exit(t, run, 2, "extra")
}
