package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
)

// The paper's orderings (Figures 5 and 6, Tables 3 and 4) as one gate, at
// the default scale (48 nodes × 64 rounds, CIFAR-like data) on seeds
// 42–46 and degrees 6 and 10. Each tolerance is a measured margin, not a
// tuned one; measured on 2 vCPUs, the whole file runs in about 7 s.
//
// The direction reproduces, the size does not: the paper reports SkipTrain
// about 6 pp above D-PSGD and SkipTrain-constrained up to 9 pp above
// Greedy on CIFAR-10. On the synthetic stand-in SkipTrain leads D-PSGD by
// +1.32 to +3.10 pp at degree 6 and ties it (−0.14 to +0.12 pp) at degree
// 10, and SkipTrain-constrained leads Greedy by +0.93 to +5.87 pp.
//
// Figure 3 is not asserted here. Within one seed the 16 Γ cells lie
// within a few pp of each other, the seed moves the whole grid by up to
// 12 pp, and on seeds 45–46 the best cell leads Section 4.3's Γ by up to
// 2.95 pp (seed 46, degree 10), with one grid's spread reaching 4.36 pp.

// claimSeeds and claimDegrees are the measured set.
var (
	claimSeeds   = []uint64{42, 43, 44, 45, 46}
	claimDegrees = []int{6, 10}
)

// tieDeg10PP bounds SkipTrain minus D-PSGD at degree 10, measured −0.14
// to +0.12 pp.
const tieDeg10PP = 0.5

// claimOptions is the default scale at one seed.
func claimOptions(seed uint64) Options { return Options{Seed: seed} }

// TestPaperClaimFigure6ConstrainedBeatsGreedy: Figure 6 / Table 4.
// SkipTrain-constrained beats Greedy in every (seed, degree) pair; the
// smallest measured lead is +0.93 pp (seed 45, degree 6).
func TestPaperClaimFigure6ConstrainedBeatsGreedy(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale Figure 6 on five seeds")
	}
	for _, seed := range claimSeeds {
		res, err := Figure6(claimOptions(seed), claimDegrees, []string{"cifar"})
		if err != nil {
			t.Fatal(err)
		}
		for _, deg := range claimDegrees {
			sc := res.Arm("SkipTrain-constrained", "cifar", deg)
			gr := res.Arm("Greedy", "cifar", deg)
			lead := sc.FinalAcc - gr.FinalAcc
			t.Logf("seed %d degree %d: SkipTrain-constrained %.2f%% − Greedy %.2f%% = %+.2f pp", seed, deg, sc.FinalAcc, gr.FinalAcc, lead)
			if lead <= 0 {
				t.Errorf("seed %d degree %d: SkipTrain-constrained − Greedy = %+.2f pp, want > 0", seed, deg, lead)
			}
		}
	}
}

// TestPaperClaimFigure5SkipTrainVsDPSGD: Figure 5 / Table 3. SkipTrain
// beats D-PSGD on every seed at degree 6 (the smallest measured lead is
// +1.32 pp, seed 46) and ties it at degree 10. Its
// paper-scale energy is one network round's energy times its training
// rounds of the paper's 1 000 (D-PSGD trains all 1 000): half D-PSGD's at
// degree 6 (Γ = (4,4), 500 rounds), but 0.668 of it at degree 10
// (Γ = (4,2), 668 rounds).
func TestPaperClaimFigure5SkipTrainVsDPSGD(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale Figure 5 on five seeds")
	}
	perRound := energy.NetworkRoundWh(PaperNodes, energy.Devices(), energy.CIFAR10Workload())
	trainedRounds := map[int]int{6: 500, 10: 668}
	for _, seed := range claimSeeds {
		res, err := Figure5(claimOptions(seed), claimDegrees, []string{"cifar"})
		if err != nil {
			t.Fatal(err)
		}
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
			t.Logf("seed %d degree %d: SkipTrain %.2f%% − D-PSGD %.2f%% = %+.2f pp at %d/%d of its energy", seed, deg, s.FinalAcc, d.FinalAcc, lead, trained, PaperRoundsCIFAR)
			switch {
			case deg == 6 && lead <= 0:
				t.Errorf("seed %d degree 6: SkipTrain − D-PSGD = %+.2f pp, want > 0", seed, lead)
			case deg == 10 && (lead < -tieDeg10PP || lead > tieDeg10PP):
				t.Errorf("seed %d degree 10: SkipTrain − D-PSGD = %+.2f pp, want within ±%.2f", seed, lead, tieDeg10PP)
			}
		}
	}
}
