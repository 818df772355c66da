package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/energy"
	"repro/internal/rng"
)

func TestGammaPattern(t *testing.T) {
	g, err := NewGamma(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []RoundKind{RoundTrain, RoundTrain, RoundSync, RoundSync, RoundSync,
		RoundTrain, RoundTrain, RoundSync, RoundSync, RoundSync}
	for i, k := range want {
		if g.Kind(i) != k {
			t.Fatalf("round %d = %v, want %v", i, g.Kind(i), k)
		}
	}
}

func TestGammaValidation(t *testing.T) {
	if _, err := NewGamma(0, 1); err == nil {
		t.Fatal("gammaTrain=0 should error")
	}
	if _, err := NewGamma(1, -1); err == nil {
		t.Fatal("negative gammaSync should error")
	}
	if _, err := NewGamma(1, 0); err != nil {
		t.Fatal("gammaSync=0 (pure training) should be allowed")
	}
}

func TestAllTrain(t *testing.T) {
	s := AllTrain{}
	for i := 0; i < 10; i++ {
		if s.Kind(i) != RoundTrain {
			t.Fatal("AllTrain must always train")
		}
	}
	if CountTrainRounds(s, 1000) != 1000 {
		t.Fatal("AllTrain count wrong")
	}
}

// TestCountTrainRoundsPaperValues pins the exact round counts behind the
// paper's energy table: over T=1000 rounds the Γ configurations of Figure 3
// consume exactly the training-round counts that, multiplied by the
// 1.51004 Wh network round energy, give the published Wh values.
func TestCountTrainRoundsPaperValues(t *testing.T) {
	cases := []struct {
		gt, gs int
		want   int // training rounds in 1000
		wh     float64
	}{
		{4, 4, 500, 755.02},  // 6-regular optimum (Table 3: 755.02 Wh)
		{3, 3, 501, 756.53},  // 8-regular optimum (Table 3: 756.53 Wh)
		{4, 2, 668, 1008.71}, // 10-regular optimum (Table 3: 1008.71 Wh)
		{1, 4, 200, 302.0},   // cheapest Figure 3 cell (302 Wh)
	}
	const networkRoundWh = 1.5100416 // 64*(6.5+6.0+2.6+8.4944) mWh in Wh
	for _, c := range cases {
		g, _ := NewGamma(c.gt, c.gs)
		got := CountTrainRounds(g, 1000)
		if got != c.want {
			t.Fatalf("Γ=(%d,%d): %d training rounds, want %d", c.gt, c.gs, got, c.want)
		}
		wh := float64(got) * networkRoundWh
		if math.Abs(wh-c.wh) > 0.5 {
			t.Fatalf("Γ=(%d,%d): energy %.2f Wh, paper %.2f", c.gt, c.gs, wh, c.wh)
		}
	}
}

func TestTTrainEq4(t *testing.T) {
	g, _ := NewGamma(4, 2)
	// Eq. (4): 4/6 * 1000 = 666.67
	if got := g.TTrain(1000); math.Abs(got-666.666666) > 1e-3 {
		t.Fatalf("TTrain = %v", got)
	}
	g2, _ := NewGamma(4, 4)
	if got := g2.TTrain(1000); got != 500 {
		t.Fatalf("TTrain = %v, want 500", got)
	}
}

func TestCountVsTTrainClose(t *testing.T) {
	// Property: the exact count differs from Eq. (4) by less than one cycle.
	f := func(gtRaw, gsRaw uint8, tRaw uint16) bool {
		gt := 1 + int(gtRaw)%4
		gs := int(gsRaw) % 5
		T := 1 + int(tRaw)%2000
		g, err := NewGamma(gt, gs)
		if err != nil {
			return false
		}
		exact := float64(CountTrainRounds(g, T))
		nominal := g.TTrain(T)
		return math.Abs(exact-nominal) <= float64(gt+gs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainingProbabilityEq5(t *testing.T) {
	if p := TrainingProbability(250, 500); p != 0.5 {
		t.Fatalf("p = %v, want 0.5", p)
	}
	if p := TrainingProbability(600, 500); p != 1 {
		t.Fatalf("p = %v, want clamp to 1", p)
	}
	if p := TrainingProbability(0, 500); p != 0 {
		t.Fatalf("p = %v, want 0", p)
	}
	if p := TrainingProbability(10, 0); p != 1 {
		t.Fatalf("degenerate T_train should give p=1, got %v", p)
	}
}

func TestPaperTrainingProbabilities(t *testing.T) {
	// CIFAR-10, 6-regular: Γ=(4,4), T=1000 -> T_train=500. Device budgets
	// 272/324/681/272 -> p = 0.544, 0.648, 1 (clamped), 0.544.
	g, _ := NewGamma(4, 4)
	tTrain := g.TTrain(1000)
	want := []float64{0.544, 0.648, 1.0, 0.544}
	taus := []int{272, 324, 681, 272}
	for i, tau := range taus {
		if p := TrainingProbability(tau, tTrain); math.Abs(p-want[i]) > 1e-9 {
			t.Fatalf("tau=%d: p = %v, want %v", tau, p, want[i])
		}
	}
}

// at is the direct-drive context for round t: policies that only read the
// round index need nothing else.
func at(t int) RoundContext { return ContextAt(nil, t, 0) }

func TestAlwaysTrainPolicy(t *testing.T) {
	p := AlwaysTrain{}
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		if !p.Participate(0, at(i), r) {
			t.Fatal("AlwaysTrain refused")
		}
	}
}

func TestContextAt(t *testing.T) {
	g, _ := NewGamma(2, 1)
	ctx := ContextAt(g, 2, 30)
	if ctx.Round != 2 || ctx.Horizon != 30 || ctx.Kind != RoundSync || ctx.Schedule != Schedule(g) {
		t.Fatalf("ContextAt built %+v", ctx)
	}
	// A nil schedule means every round trains.
	if ctx := ContextAt(nil, 5, 0); ctx.Kind != RoundTrain || ctx.Schedule != nil {
		t.Fatalf("nil-schedule context %+v", ctx)
	}
}

func TestGreedyPolicyExhaustsBudget(t *testing.T) {
	b := energy.NewBudget([]int{3, 0})
	p := GreedyPolicy{Budget: b}
	r := rng.New(2)
	got := 0
	for i := 0; i < 10; i++ {
		if p.Participate(0, at(i), r) {
			got++
		}
	}
	if got != 3 {
		t.Fatalf("greedy trained %d rounds, want 3", got)
	}
	if p.Participate(1, at(0), r) {
		t.Fatal("greedy with zero budget trained")
	}
	// Greedy trains its first 3 opportunities consecutively.
	b2 := energy.NewBudget([]int{2})
	p2 := GreedyPolicy{Budget: b2}
	if !p2.Participate(0, at(0), r) || !p2.Participate(0, at(1), r) || p2.Participate(0, at(2), r) {
		t.Fatal("greedy must train consecutively from the start")
	}
}

// TestBudgetPoliciesResettable pins the ResettablePolicy contract on the
// budget-backed policies: consumed after any training, rewound by Reset,
// and replaying the first run exactly.
func TestBudgetPoliciesResettable(t *testing.T) {
	var _ ResettablePolicy = GreedyPolicy{}
	var _ ResettablePolicy = (*ProbabilisticPolicy)(nil)

	b := energy.NewBudget([]int{2, 5})
	p := GreedyPolicy{Budget: b}
	if p.Consumed() {
		t.Fatal("fresh policy reports consumed")
	}
	r := rng.New(4)
	p.Participate(0, at(0), r)
	if !p.Consumed() {
		t.Fatal("spent budget not reported as consumed")
	}
	p.Reset()
	if p.Consumed() || b.Remaining(0) != 2 || b.Remaining(1) != 5 {
		t.Fatalf("Reset did not restore budgets: %d/%d", b.Remaining(0), b.Remaining(1))
	}

	g, _ := NewGamma(1, 1)
	pb := NewProbabilisticPolicy(g, 100, energy.NewBudget([]int{20}), 1)
	run := func() []bool {
		out := make([]bool, 40)
		rr := rng.Derive(11, 0)
		for i := range out {
			out[i] = pb.Participate(0, at(i), rr)
		}
		return out
	}
	first := run()
	if !pb.Consumed() {
		t.Fatal("probabilistic policy spent budget but reports fresh")
	}
	pb.Reset()
	if pb.Consumed() {
		t.Fatal("Reset left the policy consumed")
	}
	replay := run()
	for i := range first {
		if first[i] != replay[i] {
			t.Fatalf("round %d: replay diverged after Reset", i)
		}
	}
}

func TestProbabilisticPolicyBudget(t *testing.T) {
	g, _ := NewGamma(1, 1)
	b := energy.NewBudget([]int{5, 1000})
	p := NewProbabilisticPolicy(g, 100, b, 2) // T_train = 50
	if math.Abs(p.Probability(0)-0.1) > 1e-12 {
		t.Fatalf("p_0 = %v, want 0.1", p.Probability(0))
	}
	if p.Probability(1) != 1 {
		t.Fatalf("p_1 = %v, want 1 (clamped)", p.Probability(1))
	}
	r := rng.New(3)
	trained := 0
	for i := 0; i < 1000; i++ {
		if p.Participate(0, at(i), r) {
			trained++
		}
	}
	if trained != 5 {
		t.Fatalf("node 0 trained %d rounds, budget is 5", trained)
	}
}

func TestProbabilisticPolicyRate(t *testing.T) {
	// With a huge budget and p=0.5, participation rate ~0.5.
	g, _ := NewGamma(1, 1)
	b := energy.NewBudget([]int{5000})
	p := NewProbabilisticPolicy(g, 20000, b, 1) // T_train = 10000, p = 0.5
	r := rng.New(4)
	trained := 0
	for i := 0; i < 2000; i++ {
		if p.Participate(0, at(i), r) {
			trained++
		}
	}
	rate := float64(trained) / 2000
	if math.Abs(rate-0.5) > 0.05 {
		t.Fatalf("participation rate = %v, want ~0.5", rate)
	}
}

func TestProbabilisticDeterministicPerSeed(t *testing.T) {
	g, _ := NewGamma(2, 2)
	run := func() []bool {
		b := energy.NewBudget([]int{50})
		p := NewProbabilisticPolicy(g, 100, b, 1)
		r := rng.Derive(9, 0)
		out := make([]bool, 100)
		for i := range out {
			out[i] = p.Participate(0, at(i), r)
		}
		return out
	}
	a, bb := run(), run()
	for i := range a {
		if a[i] != bb[i] {
			t.Fatal("probabilistic policy not deterministic")
		}
	}
}

func TestAlgorithmConstructors(t *testing.T) {
	if a := DPSGD(); a.Label != "D-PSGD" || a.Aggregation != AggNeighborhood {
		t.Fatalf("DPSGD: %+v", a)
	}
	if a := AllReduce(); a.Aggregation != AggGlobal {
		t.Fatalf("AllReduce: %+v", a)
	}
	g, _ := NewGamma(3, 3)
	if a := SkipTrain(g); a.Schedule.Name() != "skiptrain(3,3)" {
		t.Fatalf("SkipTrain: %+v", a)
	}
	b := energy.NewBudget([]int{10, 10})
	if a := SkipTrainConstrained(g, 100, b, 2); a.Policy.Name() != "probabilistic" {
		t.Fatalf("SkipTrainConstrained: %+v", a)
	}
	if a := Greedy(b); a.Policy.Name() != "greedy" {
		t.Fatalf("Greedy: %+v", a)
	}
}

func TestRoundKindString(t *testing.T) {
	if RoundTrain.String() != "train" || RoundSync.String() != "sync" {
		t.Fatal("RoundKind strings wrong")
	}
}

func TestScheduleFromGammaFlags(t *testing.T) {
	s, err := ScheduleFromGammaFlags(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(AllTrain); !ok {
		t.Fatalf("(0,0) gave %T, want AllTrain", s)
	}
	s, err = ScheduleFromGammaFlags(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := s.(Gamma); !ok || g.GammaTrain != 4 || g.GammaSync != 2 {
		t.Fatalf("(4,2) gave %#v", s)
	}
	// The bugs the validation exists for: -gs without -gt was silently
	// ignored, and negative values were accepted.
	if _, err := ScheduleFromGammaFlags(0, 3); err == nil {
		t.Fatal("sync without train must error")
	}
	if _, err := ScheduleFromGammaFlags(-1, 2); err == nil {
		t.Fatal("negative train must error")
	}
	if _, err := ScheduleFromGammaFlags(2, -1); err == nil {
		t.Fatal("negative sync must error")
	}
}
