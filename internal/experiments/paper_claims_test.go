package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The paper's orderings (Figures 3, 5 and 6, Tables 3 and 4) as one gate,
// at the default scale (48 nodes, CIFAR-like data) and horizon T = 64.
// Every claim is scored on the readout: the nodes' mean accuracy averaged
// over each run's own last Γ period (its last round for a schedule without
// sync rounds). The window holds every phase of the period once, so the
// verdicts do not depend on where T falls in it: every readout claim below
// also holds at T = 60 but Figure 3's on seed 42, where a cell of share
// 3/5 edges into the top four by 0.13 pp. (The averaged models, a
// secondary column, reach 8 samples apart there in one async pair.) Each
// bound is a measured margin counted in evaluation samples: an evaluation
// scores 320 test samples, so one sample is 0.3125 pp (the quantum,
// derived from EvalSubsample and logged beside every bound).
//
// The direction reproduces, the size does not. The paper reports
// SkipTrain about 6 pp above D-PSGD at half its energy, and
// SkipTrain-constrained up to 9 pp above Greedy on CIFAR-10. On the
// synthetic stand-in SkipTrain leads D-PSGD by +0.56 … +1.60 pp at degree
// 6 and by −0.05 … +0.48 pp at degree 10, at 0.5 and 0.668 of its energy,
// and SkipTrain-constrained leads Greedy by +0.53 … +5.58 pp. The task is
// on its plateau long before T (TestClaimHorizonPlateau), so the leads are
// the sync rounds' mixing, not faster learning.

// claimSeeds, figure3Seeds, claimDegrees and claimRounds are the measured
// set.
var (
	claimSeeds   = []uint64{42, 43, 44, 45, 46}
	figure3Seeds = []uint64{42, 43, 44, 45, 46, 47}
	claimDegrees = []int{6, 10}
)

const claimRounds = 64

// matchSamples bounds how far SkipTrain may trail D-PSGD at degree 10, in
// samples: measured −0.05 pp at worst.
const matchSamples = 2

// constrainedLeadSamples is the least SkipTrain-constrained leads Greedy
// by, in samples: measured +0.53 pp, 1.70 samples, at worst.
const constrainedLeadSamples = 1

// asyncTrailSamples bounds how far the event engine's readout may trail
// the round engine's on the same trace, in samples: measured +0.74 …
// +5.27 pp, within 17 (5.31 pp). Gossip pairs mix more slowly than a W
// row, so async's nodes sit further from consensus and always trail.
// Waking a browned-out node only once it affords a training step trailed
// by up to 6.06 pp; a merge that drops a node's own model by 32.7–43.5 pp.
const asyncTrailSamples = 17

// asyncModelSamples bounds the two engines' averaged models apart, in
// samples either way: sync − async measured −2.19 … +2.19 pp.
const asyncModelSamples = 7

// asyncBrownoutExcessPP bounds how far the event engine's brown-out share
// may exceed the round engine's, in percentage points: a browned-out node
// wakes once it affords a gossip, as the round engine revives a node once
// its charge clears the cutoff. Measured at most 4.3 pp; waking at the
// training cost instead exceeded it by at least 5.9 pp.
const asyncBrownoutExcessPP = 5.0

// claimOptions is the default scale at one seed.
func claimOptions(seed uint64) Options { return Options{Seed: seed, Rounds: claimRounds} }

// bySeed runs a claim's experiment at claimOptions of every seed, fanned
// out as a table fans out its arms, and returns the results in seed order.
func bySeed[T any](t *testing.T, seeds []uint64, run func(Options) (T, error)) []T {
	t.Helper()
	out, err := sweep.Grid(nil, len(seeds), nil, func(i int) (T, error) { return run(claimOptions(seeds[i])) })
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// quantum is one evaluation sample's worth of readout, in pp.
func quantum() float64 {
	o := Options{}.Defaults()
	return 100 / float64(evalSamples(o, testSplit(o)))
}

// TestPaperClaimFigure6ConstrainedBeatsGreedy: Figure 6 / Table 4.
// SkipTrain-constrained beats Greedy by at least constrainedLeadSamples
// in every (seed, degree) pair.
func TestPaperClaimFigure6ConstrainedBeatsGreedy(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale Figure 6 on five seeds")
	}
	q := quantum()
	t.Logf("bound: lead ≥ %.4g pp, %d sample (1 sample = %.4g pp)", constrainedLeadSamples*q, constrainedLeadSamples, q)
	runs := bySeed(t, claimSeeds, func(o Options) (*Figure6Result, error) { return Figure6(o, claimDegrees, []string{"cifar"}) })
	for i, seed := range claimSeeds {
		res := runs[i]
		for _, deg := range claimDegrees {
			sc := res.Arm("SkipTrain-constrained", "cifar", deg)
			gr := res.Arm("Greedy", "cifar", deg)
			lead := sc.FinalAcc - gr.FinalAcc
			t.Logf("seed %d degree %d: SkipTrain-constrained %.2f%% − Greedy %.2f%% = %+.2f pp; averaged model %+.2f pp", seed, deg, sc.FinalAcc, gr.FinalAcc, lead, sc.Model.Acc-gr.Model.Acc)
			if lead < constrainedLeadSamples*q {
				t.Errorf("seed %d degree %d: SkipTrain-constrained − Greedy = %+.2f pp, want ≥ %.4g pp", seed, deg, lead, constrainedLeadSamples*q)
			}
		}
	}
}

// TestPaperClaimFigure5SkipTrainVsDPSGD: Figure 5 / Table 3. SkipTrain
// leads D-PSGD at degree 6 and trails it by at most matchSamples at
// degree 10, on every seed, at a paper-scale energy of one network round's
// energy times its training rounds of the paper's 1 000 (D-PSGD trains all
// 1 000): half D-PSGD's at degree 6 (Γ = (4,4), 500 rounds), 0.668 of it
// at degree 10 (Γ = (4,2), 668 rounds).
func TestPaperClaimFigure5SkipTrainVsDPSGD(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale Figure 5 on five seeds")
	}
	q := quantum()
	t.Logf("bounds: lead > 0 at degree 6, ≥ %+.4g pp (%d samples) at degree 10; 1 sample = %.4g pp", -matchSamples*q, matchSamples, q)
	perRound := energy.NetworkRoundWh(PaperNodes, energy.Devices(), energy.CIFAR10Workload())
	trainedRounds := map[int]int{6: 500, 10: 668}
	runs := bySeed(t, claimSeeds, func(o Options) (*Figure5Result, error) { return Figure5(o, claimDegrees, []string{"cifar"}) })
	for i, seed := range claimSeeds {
		res := runs[i]
		for _, deg := range claimDegrees {
			s := res.Arm("SkipTrain", "cifar", deg)
			d := res.Arm("D-PSGD", "cifar", deg)
			trained := core.CountTrainRounds(core.SkipTrain(GammaForDegree(deg)).Schedule, PaperRoundsCIFAR)
			if trained != trainedRounds[deg] {
				t.Errorf("degree %d: SkipTrain trains %d of %d paper rounds, want %d", deg, trained, PaperRoundsCIFAR, trainedRounds[deg])
			}
			if d.PaperEnergyWh != PaperRoundsCIFAR*perRound || s.PaperEnergyWh != float64(trained)*perRound {
				t.Errorf("seed %d degree %d: energy D-PSGD %v Wh, SkipTrain %v Wh; want %d and %d rounds of %v Wh",
					seed, deg, d.PaperEnergyWh, s.PaperEnergyWh, PaperRoundsCIFAR, trained, perRound)
			}
			lead := s.FinalAcc - d.FinalAcc
			t.Logf("seed %d degree %d: SkipTrain %.2f%% − D-PSGD %.2f%% = %+.2f pp at %d/%d of its energy; averaged model %s vs %s",
				seed, deg, s.FinalAcc, d.FinalAcc, lead, trained, PaperRoundsCIFAR, s.Model, d.Model)
			switch {
			case deg == 6 && lead <= 0:
				t.Errorf("seed %d degree 6: SkipTrain − D-PSGD = %+.2f pp, want > 0", seed, lead)
			case math.Round(lead/q) < -matchSamples:
				t.Errorf("seed %d degree %d: SkipTrain − D-PSGD = %+.2f pp, want ≥ %+.4g pp", seed, deg, lead, -matchSamples*q)
			}
		}
	}
}

// TestPaperClaimFigure3SyncShareRanks: Figure 3's grid at degree 6 ranks
// by sync share Γs/(Γt+Γs): the four cells with share ≥ 2/3 — (1,2),
// (1,3), (1,4) and (2,4) — are the top four on every seed 42–47. The
// paper's interior optimum does not appear: training costs no accuracy on
// a task this far onto its plateau.
func TestPaperClaimFigure3SyncShareRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale Figure 3 on six seeds")
	}
	runs := bySeed(t, figure3Seeds, func(o Options) (*Figure3Result, error) { return Figure3(o, []int{6}) })
	for i, seed := range figure3Seeds {
		res := runs[i]
		high, rest := math.Inf(1), math.Inf(-1) // the worst high-share cell, the best other
		for _, row := range res.Grid[0] {
			for _, c := range row {
				if 3*c.GammaSync >= 2*(c.GammaTrain+c.GammaSync) {
					high = min(high, c.ValAcc)
				} else {
					rest = max(rest, c.ValAcc)
				}
			}
		}
		t.Logf("seed %d: worst share ≥ 2/3 cell %.3f%%, best other %.3f%%: %+.3f pp", seed, high, rest, high-rest)
		if high <= rest {
			t.Errorf("seed %d: a cell with sync share below 2/3 (%.3f%%) reaches the top four (worst of share ≥ 2/3 %.3f%%)", seed, rest, high)
		}
	}
}

// TestPaperClaimAsyncWithinSyncBand: "async accuracy is within the sync
// band on the same trace", in all 10 (seed, regime) pairs of
// TableAsyncHarvest on seeds 42–46. On the readout the event engine trails
// the round engine, by at most asyncTrailSamples; the averaged models are
// within asyncModelSamples of each other; and its nodes are dark for at
// most asyncBrownoutExcessPP more of the time than sync's.
func TestPaperClaimAsyncWithinSyncBand(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale TableAsyncHarvest on five seeds")
	}
	q := quantum()
	t.Logf("bounds: readout trails by 0 … %d samples (%.4g pp), averaged models within ±%d (%.4g pp), brown-out excess at most %.4g pp; 1 sample = %.4g pp",
		asyncTrailSamples, asyncTrailSamples*q, asyncModelSamples, asyncModelSamples*q, asyncBrownoutExcessPP, q)
	runs := bySeed(t, claimSeeds, TableAsyncHarvest)
	for i, seed := range claimSeeds {
		legs := map[[2]string]AsyncHarvestRow{}
		for _, r := range runs[i] {
			legs[[2]string{r.Regime, r.Engine}] = r
		}
		for _, regime := range []string{"diurnal", "markov"} {
			sy, as := legs[[2]string{regime, "sync-round"}], legs[[2]string{regime, "async-event"}]
			gap, modelGap := sy.FinalAcc-as.FinalAcc, sy.Model.Acc-as.Model.Acc
			excess := as.BrownoutShare - sy.BrownoutShare
			t.Logf("seed %d %s: readout sync %.2f%% − async %.2f%% = %+.2f pp; averaged models %.2f%% − %.2f%% = %+.2f pp; brown-out %.1f%% − %.1f%% = %+.1f pp",
				seed, regime, sy.FinalAcc, as.FinalAcc, gap, sy.Model.Acc, as.Model.Acc, modelGap, as.BrownoutShare, sy.BrownoutShare, excess)
			if gap <= 0 || math.Round(gap/q) > asyncTrailSamples {
				t.Errorf("seed %d %s: sync − async readout = %+.2f pp, want in (0, %.4g] pp", seed, regime, gap, asyncTrailSamples*q)
			}
			if math.Abs(math.Round(modelGap/q)) > asyncModelSamples {
				t.Errorf("seed %d %s: sync − async averaged model = %+.2f pp, want within ±%.4g pp", seed, regime, modelGap, asyncModelSamples*q)
			}
			if excess > asyncBrownoutExcessPP {
				t.Errorf("seed %d %s: async is browned out %+.1f pp more than sync, want at most %.4g pp", seed, regime, excess, asyncBrownoutExcessPP)
			}
		}
	}
}

// TestClaimHorizonPlateau pins how early the claims' task saturates: the
// round at which D-PSGD's averaged model (degree 6, evaluated every round)
// first comes within one sample of its value at T, per claim seed. Every
// claim above compares runs long after that round; a recalibration that
// takes the task off its plateau moves these rounds and shows here.
func TestClaimHorizonPlateau(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale D-PSGD on five seeds, evaluated every round")
	}
	want := map[uint64]int{42: 9, 43: 4, 44: 4, 45: 3, 46: 4}
	q := quantum()
	runs := bySeed(t, claimSeeds, func(o Options) (*sim.Result, error) {
		cfg, err := newWorld(o.Defaults(), cifar, PaperDegree).Config(core.DPSGD())
		if err != nil {
			return nil, err
		}
		cfg.EvalEvery = 1
		return sim.Run(cfg)
	})
	for i, seed := range claimSeeds {
		final := 100 * runs[i].FinalGlobalAcc
		first := 0
		for _, m := range runs[i].History {
			if math.Round(math.Abs(100*m.GlobalAcc-final)/q) <= 1 {
				first = m.Round + 1
				break
			}
		}
		t.Logf("seed %d: the averaged model is within one sample of its %.2f%% at T = %d from round %d", seed, final, claimRounds, first)
		if first != want[seed] {
			t.Errorf("seed %d: the averaged model first comes within one sample of its value at T in round %d, want %d", seed, first, want[seed])
		}
	}
}
