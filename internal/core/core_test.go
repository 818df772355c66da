package core

import (
	"math"
	"testing"
	"testing/quick"

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

// TestWindow: a readout averages one full Γ period when the schedule has
// sync rounds, and the last round otherwise.
func TestWindow(t *testing.T) {
	for _, c := range []struct {
		s    Schedule
		want int
	}{{AllTrain{}, 1}, {Gamma{4, 0}, 1}, {Gamma{4, 4}, 8}, {Gamma{4, 2}, 6}, {Gamma{1, 3}, 4}} {
		if got := Window(c.s); got != c.want {
			t.Errorf("Window(%s) = %d, want %d", c.s.Name(), got, c.want)
		}
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

// drive asks p about node for rounds rounds the way an engine does: each
// context carries the rounds the node has trained so far, and a yes trains.
func drive(p Policy, node, rounds int, r *rng.RNG) []bool {
	out, trained := make([]bool, rounds), 0
	for i := range out {
		ctx := at(i)
		ctx.Trained = trained
		if out[i] = p.Participate(node, ctx, r); out[i] {
			trained++
		}
	}
	return out
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func TestGreedyPolicyExhaustsBudget(t *testing.T) {
	p := GreedyPolicy{Tau: []int{3, 0, 2}}
	for _, c := range []struct {
		name       string
		node, want int
	}{
		{"tau_3", 0, 3},
		{"zero_budget", 1, 0},
		{"tau_2", 2, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := drive(p, c.node, 10, rng.New(2))
			if count(got) != c.want {
				t.Fatalf("greedy trained %d rounds, want %d", count(got), c.want)
			}
			// Greedy trains its first τ opportunities consecutively.
			for i, g := range got {
				if g != (i < c.want) {
					t.Fatalf("round %d: trained=%v, want the first %d rounds", i, g, c.want)
				}
			}
		})
	}
	t.Run("exhausted", func(t *testing.T) {
		ctx := at(7)
		ctx.Trained = 3
		if p.Participate(0, ctx, rng.New(2)) {
			t.Fatal("greedy trained past its budget")
		}
	})
}

// TestBudgetPoliciesStateless pins that the budget policies carry no run
// state: they are not ResettablePolicy, and one value replays a run
// exactly, because the spent budget is the caller's RoundContext.Trained.
func TestBudgetPoliciesStateless(t *testing.T) {
	g, _ := NewGamma(1, 1)
	for _, p := range []Policy{GreedyPolicy{Tau: []int{20}}, NewProbabilisticPolicy(g, 100, []int{20})} {
		if _, ok := p.(ResettablePolicy); ok {
			t.Fatalf("%s is a ResettablePolicy", p.Name())
		}
		first := drive(p, 0, 40, rng.Derive(11, 0))
		replay := drive(p, 0, 40, rng.Derive(11, 0))
		for i := range first {
			if first[i] != replay[i] {
				t.Fatalf("%s round %d: a second run with the same value diverged", p.Name(), i)
			}
		}
	}
}

func TestProbabilisticPolicyBudget(t *testing.T) {
	g, _ := NewGamma(1, 1)
	p := NewProbabilisticPolicy(g, 100, []int{5, 1000, 0}) // T_train = 50
	if math.Abs(p.probs[0]-0.1) > 1e-12 {
		t.Fatalf("p_0 = %v, want 0.1", p.probs[0])
	}
	if p.probs[1] != 1 {
		t.Fatalf("p_1 = %v, want 1 (clamped)", p.probs[1])
	}
	for _, c := range []struct {
		name       string
		node, want int
	}{
		{"exhausts_tau_5", 0, 5},
		{"zero_budget", 2, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := count(drive(p, c.node, 1000, rng.New(3))); got != c.want {
				t.Fatalf("node %d trained %d rounds, budget is %d", c.node, got, c.want)
			}
		})
	}
	t.Run("exhausted_before_coin", func(t *testing.T) {
		// A spent budget refuses without drawing: the stream is untouched.
		r, ref := rng.New(3), rng.New(3)
		ctx := at(0)
		ctx.Trained = 1000
		if p.Participate(1, ctx, r) {
			t.Fatal("probabilistic policy trained past its budget")
		}
		if r.Float64() != ref.Float64() {
			t.Fatal("an exhausted budget drew from the node's RNG")
		}
	})
}

func TestProbabilisticPolicyRate(t *testing.T) {
	// With a huge budget and p=0.5, participation rate ~0.5.
	g, _ := NewGamma(1, 1)
	p := NewProbabilisticPolicy(g, 20000, []int{5000}) // T_train = 10000, p = 0.5
	rate := float64(count(drive(p, 0, 2000, rng.New(4)))) / 2000
	if math.Abs(rate-0.5) > 0.05 {
		t.Fatalf("participation rate = %v, want ~0.5", rate)
	}
}

// TestProbabilisticPolicyParticipationUnbiased: while a node has budget
// left (Trained < τᵢ) it trains in a coordinated round at rate
// pᵢ = TrainingProbability(τᵢ, Γ.TTrain(T)), within 4σ, on several Γ, T
// and τ; at p = 1 it trains every time.
func TestProbabilisticPolicyParticipationUnbiased(t *testing.T) {
	const draws = 20000
	for _, c := range []struct {
		train, sync, horizon int
		tau                  []int
	}{
		{1, 1, 100, []int{5, 25, 50, 80}},
		{2, 3, 1000, []int{40, 200, 399, 400}},
		{4, 1, 250, []int{1, 100, 199, 1000}},
		{3, 0, 60, []int{6, 30, 60}},
	} {
		g, err := NewGamma(c.train, c.sync)
		if err != nil {
			t.Fatal(err)
		}
		p := NewProbabilisticPolicy(g, c.horizon, c.tau)
		for node, tau := range c.tau {
			want := TrainingProbability(tau, g.TTrain(c.horizon))
			sigma := math.Sqrt(want * (1 - want) / draws)
			for _, trained := range []int{0, tau - 1} {
				ctx := RoundContext{Kind: RoundTrain, Horizon: c.horizon, Trained: trained}
				r := rng.Derive(12, uint64(c.train), uint64(c.sync), uint64(c.horizon), uint64(node), uint64(trained))
				n := 0
				for range draws {
					if p.Participate(node, ctx, r) {
						n++
					}
				}
				if rate := float64(n) / draws; math.Abs(rate-want) > 4*sigma {
					t.Errorf("Γ=(%d,%d) T=%d τ=%d trained=%d: rate %.4f, want %.4f ± %.4f (4σ)",
						c.train, c.sync, c.horizon, tau, trained, rate, want, 4*sigma)
				}
			}
		}
	}
}

func TestProbabilisticDeterministicPerSeed(t *testing.T) {
	g, _ := NewGamma(2, 2)
	run := func() []bool {
		return drive(NewProbabilisticPolicy(g, 100, []int{50}), 0, 100, rng.Derive(9, 0))
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
	b := []int{10, 10}
	if a := SkipTrainConstrained(g, 100, b); a.Policy.Name() != "probabilistic" {
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

// TestNewGammaRejectsOverflowingPeriod: a period Γtrain+Γsync past
// MaxInt once wrapped negative in Kind and Window, and a readout over the
// "last Γ period" of a run sliced out of range and panicked.
func TestNewGammaRejectsOverflowingPeriod(t *testing.T) {
	for _, g := range [][2]int{{math.MaxInt, 1}, {1, math.MaxInt}, {math.MaxInt / 2, math.MaxInt/2 + 2}, {0, 1}, {2, -1}} {
		if _, err := NewGamma(g[0], g[1]); err == nil {
			t.Errorf("NewGamma(%d, %d) = nil error", g[0], g[1])
		}
	}
	for _, g := range [][2]int{{math.MaxInt, 0}, {math.MaxInt - 3, 3}, {1000000000, 1}, {1, 0}} {
		s, err := NewGamma(g[0], g[1])
		if err != nil || Window(s) < 1 || s.Kind(0) != RoundTrain {
			t.Errorf("NewGamma(%d, %d) = %v, %v", g[0], g[1], s, err)
		}
	}
}
