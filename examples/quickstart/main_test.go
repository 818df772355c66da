package main

import (
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/cli/clitest"
)

// TestQuickstart pins the energy line, and holds both accuracy curves to
// the evaluation cadence: the SkipTrain curve once plotted 13 points
// against D-PSGD's 10, the readout's window rounds among them.
func TestQuickstart(t *testing.T) {
	clitest.Line(t, run, "SkipTrain used 50% of D-PSGD's training energy.")
	clitest.Exit(t, run, 2, "extra")
	_, out := clitest.Exec(t, run)
	curves := 0
	for _, line := range strings.Split(out, "\n") {
		name, curve, _ := strings.Cut(line, " ")
		if curve = strings.TrimLeft(curve, " "); curve == "" || strings.ContainsAny(curve, " .%") {
			continue // not a curve line
		}
		curves++
		if n := utf8.RuneCountInString(curve); n != 10 {
			t.Errorf("%s curve has %d points, want 10 (rounds 4, 8, …, 40) in:\n%s", name, n, out)
		}
	}
	if curves != 2 {
		t.Errorf("%d curves, want 2, in:\n%s", curves, out)
	}
}
