package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/sim"
)

// Every table, and every single run's final line, reports one accuracy per
// run, its readout: the mean of the
// nodes' own accuracies, averaged over the run's last core.Window rounds —
// one full Γ period of a schedule with sync rounds, the last round of any
// other. The window holds every phase of the period once, so the readout
// does not record where T falls in it, and it sees a sync round: gossip
// pulls the node models together, which the mean of their accuracies
// shows and the averaged model cannot (Metropolis–Hastings W is doubly
// stochastic, so a sync round leaves the fleet mean where it was). The
// tables that compare runs print the averaged model's accuracy and the
// consensus distance at T as a secondary column (ModelColumn), and so does
// a single run. Every run's manifest names the readout (core.ReadoutName).

// Readout is the accuracy a table reports for a run of schedule s, in %.
// sim.Run evaluates every round of the window whatever its EvalEvery. An
// async run has no shared phase — each node follows s on its own step
// count — so its readout is the horizon's mean node accuracy.
func Readout[R *sim.Result | *async.Result](r R, s core.Schedule) float64 {
	switch r := any(r).(type) {
	case *sim.Result:
		h := r.History[len(r.History)-min(core.Window(s), len(r.History)):]
		sum := 0.0
		for _, m := range h {
			sum += m.MeanAcc
		}
		return 100 * sum / float64(len(h))
	case *async.Result:
		return 100 * r.FinalMeanAcc
	}
	panic("unreachable")
}

// ModelColumn is a run's secondary column: the accuracy of the average of
// all node models at T, Figure 1's metric, and how far the node models are
// from that average.
type ModelColumn struct {
	Acc       float64 // the averaged model's accuracy at T, %
	Consensus float64 // mean L2 distance of the node models from their mean at T
}

// modelHeader heads the secondary column in every table that prints it.
const modelHeader = "avg model acc % @T, consensus"

func (c ModelColumn) String() string { return fmt.Sprintf("%.2f cd %.3f", c.Acc, c.Consensus) }

// ModelColumnOf reads the secondary column off a run.
func ModelColumnOf[R *sim.Result | *async.Result](res R) ModelColumn {
	switch r := any(res).(type) {
	case *sim.Result:
		return ModelColumn{100 * r.FinalGlobalAcc, r.History[len(r.History)-1].Consensus}
	case *async.Result:
		return ModelColumn{100 * r.FinalGlobalAcc, r.History[len(r.History)-1].Consensus}
	}
	panic("unreachable")
}

// evalSamples is how many samples one evaluation of a split of n scores.
// One sample moves an accuracy by 100/evalSamples pp: the readout's
// quantum.
func evalSamples(o Options, n int) int {
	if o.EvalSubsample > 0 {
		return min(n, o.EvalSubsample)
	}
	return n
}

// The test and validation splits are the two halves of o.TestSamples.
func testSplit(o Options) int { return o.TestSamples - o.TestSamples/2 }
func valSplit(o Options) int  { return o.TestSamples / 2 }

// readoutNote is the line a rendered table or figure names its readout
// with: what it scores, on how many samples, and one sample's worth.
func readoutNote(what string, samples int) string {
	return "readout: " + what + " on " + strconv.Itoa(samples) + " samples (1 sample = " +
		strconv.FormatFloat(100/float64(samples), 'g', 4, 64) + " pp)"
}

// periodNote is readoutNote of the readout.
func periodNote(samples int) string {
	return readoutNote("mean node accuracy over each run's last Γ period (its last round without sync rounds)", samples)
}
