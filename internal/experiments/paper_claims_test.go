package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
)

// The paper's orderings (Figures 5 and 6, Tables 3 and 4) as one gate, at
// the default scale (48 nodes, CIFAR-like data) and at two horizons,
// T = 60 and T = 64, which flip the end phase of both Γ = (4,4) and
// Γ = (4,2). Every claim is scored on the readout, the averaged model's
// accuracy, and holds with the same verdict at both horizons. Each bound
// is a measured margin counted in evaluation samples: an evaluation scores
// 320 test samples, so one sample is 0.3125 pp (the quantum, derived from
// EvalSubsample and logged beside every bound). Measured on 2 vCPUs, the
// whole file runs in about 21 s.
//
// The direction reproduces, the size does not. The paper reports
// SkipTrain about 6 pp above D-PSGD at half its energy, and
// SkipTrain-constrained up to 9 pp above Greedy on CIFAR-10. On the
// synthetic stand-in, over seeds 42–53, both horizons and degrees 6 and
// 10, SkipTrain matches D-PSGD at 0.5 (degree 6) and 0.668 (degree 10) of
// its energy: the 48 leads lie in −0.62 … +1.87 pp with no phase pattern,
// never more than two samples behind. SkipTrain-constrained leads Greedy
// by +0.31 to +7.81 pp.
//
// The mean of the nodes' own accuracies at T, the tables' secondary
// column, reads where T falls in Γ's period instead. SkipTrain minus
// D-PSGD on it, seeds 42–46:
//
//	T   Γ = (4,4) ends on   degree 6, pp    Γ = (4,2) ends on   degree 10, pp
//	60  4 train rounds      −0.11 … +0.16   a full sync phase   +0.04 … +1.30
//	62  2 sync rounds       +1.07 … +2.72   2 train rounds      −0.01 … +0.29
//	64  a full sync phase   +1.32 … +3.10   4 train rounds      −0.14 … +0.12
//	66  2 train rounds      −0.03 … +0.68   a full sync phase   +0.27 … +1.11
//
// A run that ends on sync rounds has just gossiped without training, so
// its nodes sit closer to consensus and each scores higher; that is the
// mechanism claim below, not a lead of the algorithm.
//
// Figure 3 is not asserted: the grid is flat at sim scale. On the readout,
// over seeds 42–53 at T = 60 and T = 64 and degrees 6, 8 and 10, every
// cell's mean offset from its grid's mean lies within −0.33 … +0.29 pp,
// about one sample, while one grid spans 0.62 … 2.19 pp. Section 4.3's
// cell sits 0 … 1.88 pp below its grid's best and ranks anywhere from 1st
// to 16th of 16. The energy heatmap is exact and pinned by
// TestFigure3GridAndEnergy.

// claimSeeds, figure5Seeds, claimDegrees and claimHorizons are the
// measured set: Figure 5's bound is asserted on all twelve seeds it was
// measured on.
var (
	claimSeeds    = []uint64{42, 43, 44, 45, 46}
	figure5Seeds  = []uint64{42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53}
	claimDegrees  = []int{6, 10}
	claimHorizons = []int{60, 64}
)

// matchSamples bounds how far SkipTrain may trail D-PSGD on the readout,
// in samples: measured −0.625 pp, two samples, at worst.
const matchSamples = 2

// nodeTieSamples bounds SkipTrain minus D-PSGD on the mean node accuracy
// where SkipTrain's run ends on a training round, in readout samples:
// measured −0.16 … +0.25 pp, within one.
const nodeTieSamples = 1

// asyncTrailSamples and asyncLeadSamples bound, in readout samples, how
// far the event engine's averaged model may trail and lead the round
// engine's on the same trace: sync − async measured −2.50 … +2.19 pp, so
// async trails by at most seven samples and leads by at most eight.
const (
	asyncTrailSamples = 7
	asyncLeadSamples  = 8
)

// asyncNodeGapSamples bounds how far the event engine's mean node accuracy
// may trail the round engine's, in readout samples: measured +0.74 …
// +5.27 pp, within 17 (5.31 pp). Waking a browned-out node only once it
// affords a training step trailed by up to 6.06 pp; a merge that drops a
// node's own model trailed by 32.7–43.5 pp.
const asyncNodeGapSamples = 17

// asyncBrownoutExcessPP bounds how far the event engine's brown-out share
// may exceed the round engine's, in percentage points: a browned-out node
// wakes once it affords a gossip, as the round engine revives a node once
// its charge clears the cutoff. Measured at most 4.3 pp; waking at the
// training cost instead exceeded it by at least 5.9 pp.
const asyncBrownoutExcessPP = 5.0

// claimOptions is the default scale at one seed and horizon.
func claimOptions(seed uint64, rounds int) Options { return Options{Seed: seed, Rounds: rounds} }

// quantum is one evaluation sample's worth of readout, in pp.
func quantum() float64 {
	o := Options{}.Defaults()
	return 100 / float64(evalSamples(o, testSplit(o)))
}

// figure5Runs runs Figure 5 once for every seed and horizon both Figure 5
// claims read, keyed by {seed, T}.
var figure5Runs = sync.OnceValues(func() (map[[2]int]*Figure5Result, error) {
	runs := map[[2]int]*Figure5Result{}
	for _, seed := range figure5Seeds {
		for _, rounds := range claimHorizons {
			res, err := Figure5(claimOptions(seed, rounds), claimDegrees, []string{"cifar"})
			if err != nil {
				return nil, err
			}
			runs[[2]int{int(seed), rounds}] = res
		}
	}
	return runs, nil
})

// TestPaperClaimFigure6ConstrainedBeatsGreedy: Figure 6 / Table 4.
// SkipTrain-constrained beats Greedy in every (seed, degree, T) triple;
// the smallest measured lead is one sample, +0.31 pp (seed 45, degree 10,
// T = 64).
func TestPaperClaimFigure6ConstrainedBeatsGreedy(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale Figure 6 on five seeds at two horizons")
	}
	t.Logf("bound: lead > 0 (1 sample = %.4g pp)", quantum())
	for _, rounds := range claimHorizons {
		for _, seed := range claimSeeds {
			res, err := Figure6(claimOptions(seed, rounds), claimDegrees, []string{"cifar"})
			if err != nil {
				t.Fatal(err)
			}
			for _, deg := range claimDegrees {
				sc := res.Arm("SkipTrain-constrained", "cifar", deg)
				gr := res.Arm("Greedy", "cifar", deg)
				lead := sc.FinalAcc - gr.FinalAcc
				t.Logf("T %d seed %d degree %d: SkipTrain-constrained %.2f%% − Greedy %.2f%% = %+.2f pp", rounds, seed, deg, sc.FinalAcc, gr.FinalAcc, lead)
				if lead <= 0 {
					t.Errorf("T %d seed %d degree %d: SkipTrain-constrained − Greedy = %+.2f pp, want > 0", rounds, seed, deg, lead)
				}
			}
		}
	}
}

// TestPaperClaimFigure5SkipTrainVsDPSGD: Figure 5 / Table 3. SkipTrain
// matches D-PSGD — trails it by at most matchSamples samples on the
// readout — on seeds 42–53 at both horizons, at a paper-scale energy of
// one network round's energy times its training rounds of the paper's
// 1 000 (D-PSGD trains all 1 000): half D-PSGD's at degree 6 (Γ = (4,4),
// 500 rounds), 0.668 of it at degree 10 (Γ = (4,2), 668 rounds).
func TestPaperClaimFigure5SkipTrainVsDPSGD(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale Figure 5 on twelve seeds at two horizons")
	}
	runs, err := figure5Runs()
	if err != nil {
		t.Fatal(err)
	}
	q := quantum()
	bound := -matchSamples * q
	t.Logf("bound: lead ≥ %+.4g pp, %d samples (1 sample = %.4g pp)", bound, matchSamples, q)
	perRound := energy.NetworkRoundWh(PaperNodes, energy.Devices(), energy.CIFAR10Workload())
	trainedRounds := map[int]int{6: 500, 10: 668}
	for _, rounds := range claimHorizons {
		for _, seed := range figure5Seeds {
			res := runs[[2]int{int(seed), rounds}]
			for _, deg := range claimDegrees {
				s := res.Arm("SkipTrain", "cifar", deg)
				d := res.Arm("D-PSGD", "cifar", deg)
				trained := core.CountTrainRounds(core.SkipTrain(GammaForDegree(deg)).Schedule, PaperRoundsCIFAR)
				if trained != trainedRounds[deg] {
					t.Errorf("degree %d: SkipTrain trains %d of %d paper rounds, want %d", deg, trained, PaperRoundsCIFAR, trainedRounds[deg])
				}
				if d.PaperEnergyWh != PaperRoundsCIFAR*perRound || s.PaperEnergyWh != float64(trained)*perRound {
					t.Errorf("T %d seed %d degree %d: energy D-PSGD %v Wh, SkipTrain %v Wh; want %d and %d rounds of %v Wh",
						rounds, seed, deg, d.PaperEnergyWh, s.PaperEnergyWh, PaperRoundsCIFAR, trained, perRound)
				}
				lead := s.FinalAcc - d.FinalAcc
				t.Logf("T %d seed %d degree %d: SkipTrain %.2f%% − D-PSGD %.2f%% = %+.2f pp at %d/%d of its energy", rounds, seed, deg, s.FinalAcc, d.FinalAcc, lead, trained, PaperRoundsCIFAR)
				if math.Round(lead/q) < -matchSamples {
					t.Errorf("T %d seed %d degree %d: SkipTrain − D-PSGD = %+.2f pp, want ≥ %+.4g pp", rounds, seed, deg, lead, bound)
				}
			}
		}
	}
}

// TestPaperClaimFigure5LeadIsTheEndPhase: the mechanism behind the former
// readout's SkipTrain lead, on the secondary column. Wherever SkipTrain's
// run ends on a sync round (Γ = (4,4) at T = 64, Γ = (4,2) at T = 60), its
// nodes' mean accuracy leads D-PSGD's (smallest measured lead +0.04 pp,
// seed 45, degree 10, T = 60); wherever it ends on a training round, the
// two are within nodeTieSamples readout samples.
func TestPaperClaimFigure5LeadIsTheEndPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale Figure 5 on twelve seeds at two horizons")
	}
	runs, err := figure5Runs()
	if err != nil {
		t.Fatal(err)
	}
	q := quantum()
	t.Logf("bounds: lead > 0 ending on sync, |lead| ≤ %.4g pp ending on train, %d sample (1 sample = %.4g pp)", nodeTieSamples*q, nodeTieSamples, q)
	for _, rounds := range claimHorizons {
		for _, seed := range figure5Seeds {
			res := runs[[2]int{int(seed), rounds}]
			for _, deg := range claimDegrees {
				s := res.Arm("SkipTrain", "cifar", deg)
				d := res.Arm("D-PSGD", "cifar", deg)
				lead := s.Node.Acc - d.Node.Acc
				t.Logf("T %d seed %d degree %d: SkipTrain %s − D-PSGD %s: %+.2f pp", rounds, seed, deg, s.Node, d.Node, lead)
				switch endsSync := strings.HasPrefix(s.Node.EndPhase, "ends sync"); {
				case endsSync && lead <= 0:
					t.Errorf("T %d seed %d degree %d: SkipTrain %s, mean node lead %+.2f pp, want > 0", rounds, seed, deg, s.Node.EndPhase, lead)
				case !endsSync && (lead < -nodeTieSamples*q || lead > nodeTieSamples*q):
					t.Errorf("T %d seed %d degree %d: SkipTrain %s, mean node lead %+.2f pp, want within ±%.4g", rounds, seed, deg, s.Node.EndPhase, lead, nodeTieSamples*q)
				}
			}
		}
	}
}

// TestPaperClaimAsyncWithinSyncBand: "async accuracy is within the sync
// band on the same trace". On the readout, the averaged model's accuracy,
// the event engine trails the round engine by at most asyncTrailSamples
// and leads it by at most asyncLeadSamples in all 20 (seed, regime, T)
// triples of TableAsyncHarvest on seeds 42–46 at T = 60 and T = 64. On the
// secondary column, the mean of the nodes' own accuracies, async trails by
// at most asyncNodeGapSamples: gossip pairs mix more slowly than a W row,
// so its node models sit further from consensus at the horizon. Its nodes
// are dark for at most asyncBrownoutExcessPP more of the time than sync's.
func TestPaperClaimAsyncWithinSyncBand(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale TableAsyncHarvest on five seeds at two horizons")
	}
	q := quantum()
	t.Logf("bounds: readout trails by at most %d samples (%.4g pp) and leads by at most %d (%.4g pp), node gap at most %d (%.4g pp), brown-out excess at most %.4g pp; 1 sample = %.4g pp",
		asyncTrailSamples, asyncTrailSamples*q, asyncLeadSamples, asyncLeadSamples*q,
		asyncNodeGapSamples, asyncNodeGapSamples*q, asyncBrownoutExcessPP, q)
	for _, rounds := range claimHorizons {
		for _, seed := range claimSeeds {
			rows, err := TableAsyncHarvest(claimOptions(seed, rounds))
			if err != nil {
				t.Fatal(err)
			}
			legs := map[[2]string]AsyncHarvestRow{}
			for _, r := range rows {
				legs[[2]string{r.Regime, r.Engine}] = r
			}
			for _, regime := range []string{"diurnal", "markov"} {
				sy, as := legs[[2]string{regime, "sync-round"}], legs[[2]string{regime, "async-event"}]
				gap, nodeGap := sy.FinalAcc-as.FinalAcc, sy.Node.Acc-as.Node.Acc
				excess := as.BrownoutShare - sy.BrownoutShare
				t.Logf("T %d seed %d %s: readout sync %.2f%% − async %.2f%% = %+.2f pp; nodes %.2f%% − %.2f%% = %+.2f pp; brown-out %.1f%% − %.1f%% = %+.1f pp",
					rounds, seed, regime, sy.FinalAcc, as.FinalAcc, gap, sy.Node.Acc, as.Node.Acc, nodeGap, as.BrownoutShare, sy.BrownoutShare, excess)
				if g := math.Round(gap / q); g > asyncTrailSamples || g < -asyncLeadSamples {
					t.Errorf("T %d seed %d %s: sync − async readout = %+.2f pp, want within %+.4g … %+.4g pp", rounds, seed, regime, gap, -asyncLeadSamples*q, asyncTrailSamples*q)
				}
				if math.Round(nodeGap/q) > asyncNodeGapSamples {
					t.Errorf("T %d seed %d %s: async nodes trail sync by %+.2f pp, want at most %.4g pp", rounds, seed, regime, nodeGap, asyncNodeGapSamples*q)
				}
				if excess > asyncBrownoutExcessPP {
					t.Errorf("T %d seed %d %s: async is browned out %+.1f pp more than sync, want at most %.4g pp", rounds, seed, regime, excess, asyncBrownoutExcessPP)
				}
			}
		}
	}
}
