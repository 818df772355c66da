package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

func TestQuickstart(t *testing.T) {
	clitest.Line(t, run, "SkipTrain used 50% of D-PSGD's training energy.")
	clitest.Exit(t, run, 2, "extra")
}
