package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/sim"
)

// Every table reports one accuracy per run, its readout: the accuracy of
// the average of all node models, Figure 1's metric. The mean of the
// nodes' own accuracies at T mostly records where T falls in Γ's period:
// a run whose last rounds are sync rounds has just gossiped without
// training, so its nodes sit closer to consensus and each scores higher.
// The averaged model does not move with the phase. The tables that compare
// runs print the mean node accuracy as a secondary column (NodeColumn),
// beside the phase the run ended in and its consensus distance, so the
// mechanism stays in view.

// readoutName names the readout in every cached cell's key
// (tuningManifest), so a cell stored under another readout is a miss.
const readoutName = "averaged-model"

// readout is the accuracy a table reports for a run, or a curve for one
// evaluated round, in %: the averaged model's. world.config asks every
// sim run to score it; async.Run always does.
func readout[R *sim.Result | *async.Result | sim.RoundMetrics](r R) float64 {
	switch r := any(r).(type) {
	case *sim.Result:
		return 100 * r.FinalGlobalAcc
	case *async.Result:
		return 100 * r.FinalGlobalAcc
	case sim.RoundMetrics:
		return 100 * r.GlobalAcc
	}
	panic("unreachable")
}

// NodeColumn is a run's secondary accuracy column: the mean of the nodes'
// own accuracies at T, the phase of its schedule the run ends in, and how
// far the node models are from their mean at T.
type NodeColumn struct {
	Acc       float64 // mean node accuracy at T, %
	EndPhase  string  // e.g. "ends sync 2/4": the second of Γsync = 4 sync rounds
	Consensus float64 // mean L2 distance of the node models from their mean at T
}

// nodeHeader heads the secondary column in every table that prints it.
const nodeHeader = "node acc % @T, end phase, consensus"

func (c NodeColumn) String() string {
	return fmt.Sprintf("%.2f %s cd %.3f", c.Acc, c.EndPhase, c.Consensus)
}

// nodeColumn reads the secondary column off a run of schedule s over
// rounds rounds; an async run's rounds are the trace rounds it spans.
func nodeColumn[R *sim.Result | *async.Result](res R, s core.Schedule, rounds int) NodeColumn {
	c := NodeColumn{EndPhase: endPhase(s, rounds)}
	switch r := any(res).(type) {
	case *sim.Result:
		c.Acc, c.Consensus = 100*r.FinalMeanAcc, r.History[len(r.History)-1].Consensus
	case *async.Result:
		c.Acc, c.Consensus = 100*r.FinalMeanAcc, r.History[len(r.History)-1].Consensus
	}
	return c
}

// endPhase names where the last of rounds falls in s's period: "ends train
// 4/4" is the last of Γtrain = 4 training rounds, "ends sync 2/4" the
// second of Γsync = 4 sync rounds. A schedule without sync rounds ends on
// "train".
func endPhase(s core.Schedule, rounds int) string {
	g, ok := s.(core.Gamma)
	if !ok || g.GammaSync == 0 {
		return "ends train"
	}
	t := (rounds - 1) % (g.GammaTrain + g.GammaSync)
	if t < g.GammaTrain {
		return fmt.Sprintf("ends train %d/%d", t+1, g.GammaTrain)
	}
	return fmt.Sprintf("ends sync %d/%d", t-g.GammaTrain+1, g.GammaSync)
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

// averagedNote is readoutNote of the readout.
func averagedNote(samples int) string { return readoutNote("averaged model's accuracy", samples) }
