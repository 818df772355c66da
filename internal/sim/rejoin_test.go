package sim

import (
	"math"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestCatchUpWeightsConvexProperty is the convexity property test: for 1k
// random staleness draws (and random half-lives) the blend weights are
// non-negative and sum to exactly 1.
func TestCatchUpWeightsConvexProperty(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 1000; trial++ {
		halfLife := 0.1 + 20*r.Float64()
		c, err := NewCatchUp(halfLife)
		if err != nil {
			t.Fatal(err)
		}
		s := r.Intn(10000)
		own, nbr := c.weights(s)
		if own < 0 || nbr < 0 {
			t.Fatalf("h=%v s=%d: negative weight (%v, %v)", halfLife, s, own, nbr)
		}
		if own+nbr != 1 {
			t.Fatalf("h=%v s=%d: weights sum to %v, want exactly 1", halfLife, s, own+nbr)
		}
		if own > 1 {
			t.Fatalf("h=%v s=%d: own weight %v > 1", halfLife, s, own)
		}
	}
	// Half-life semantics: at s = halfLife the node trusts both sides equally.
	c, _ := NewCatchUp(4)
	if w, _ := c.weights(4); math.Abs(w-0.5) > 1e-15 {
		t.Fatalf("at one half-life w=%v, want 0.5", w)
	}
	// Monotone decay.
	prev := math.Inf(1)
	for s := 0; s < 50; s++ {
		w, _ := c.weights(s)
		if w >= prev {
			t.Fatalf("weight not strictly decaying at s=%d", s)
		}
		prev = w
	}
	if _, err := NewCatchUp(0); err == nil {
		t.Fatal("zero half-life should error")
	}
	if _, err := NewCatchUp(math.Inf(1)); err == nil {
		t.Fatal("infinite half-life should error")
	}
}

// TestRulesApplySemantics: each rule rewrites the frozen model in place
// and reports a restore exactly when it took something from the
// neighborhood.
func TestRulesApplySemantics(t *testing.T) {
	nbr := tensor.Vector{3, 5}
	catchUp, _ := NewCatchUp(2)
	for _, tc := range []struct {
		rule     RejoinRule
		nbr      tensor.Vector
		want     tensor.Vector
		restored bool
	}{
		{ResumeStale{}, nbr, tensor.Vector{1, 1}, false},
		{RestoreCheckpoint{}, nbr, nbr, true},
		{RestoreCheckpoint{}, nil, tensor.Vector{1, 1}, false},            // isolated: keeps its own last checkpoint
		{catchUp, nbr, tensor.Vector{0.5*1 + 0.5*3, 0.5*1 + 0.5*5}, true}, // one half-life: the midpoint
		{catchUp, nil, tensor.Vector{1, 1}, false},
	} {
		x := tensor.Vector{1, 1}
		if restored := tc.rule.Apply(x, 2, tc.nbr); restored != tc.restored || !slices.Equal(x, tc.want) {
			t.Errorf("%s with neighbors %v: %v (restored %v), want %v (%v)", tc.rule.Name(), tc.nbr, x, restored, tc.want, tc.restored)
		}
	}
}

func TestRuleByName(t *testing.T) {
	for name, want := range map[string]string{
		"stale":   "resume-stale",
		"restore": "restore-checkpoint",
		"catchup": "catch-up(h=2)",
	} {
		rule, err := RuleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if rule.Name() != want {
			t.Fatalf("%s -> %s, want %s", name, rule.Name(), want)
		}
	}
	if _, err := RuleByName("nope"); err == nil {
		t.Fatal("unknown rule should error")
	}
}

// TestRevivalEventsCarryStaleness: every run with a live source derives its
// brown-outs and revivals from one lastLive record, so a run without a
// rejoin rule reports the same events, staleness included, as one with.
func TestRevivalEventsCarryStaleness(t *testing.T) {
	events := func(rule RejoinRule) []obs.Event {
		cfg := testConfig(t, 45)
		cfg.Rounds = 10
		cfg.DropDeadNodes = true
		cfg.Liveness = scriptedOutage(8)
		cfg.Rejoin = rule
		mem := obstest.NewMemory()
		cfg.Probe = obs.NewProbe(mem)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var out []obs.Event
		for _, ev := range mem.Events() {
			if ev.Kind == obs.KindBrownout || ev.Kind == obs.KindRevival {
				out = append(out, ev)
			}
		}
		return out
	}
	want := []obs.Event{
		{Kind: obs.KindBrownout, Round: 3, Node: 0},
		{Kind: obs.KindRevival, Round: 6, Node: 0, Staleness: 3},
	}
	catchUp, err := NewCatchUp(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []RejoinRule{nil, catchUp} {
		if got := events(rule); !slices.Equal(got, want) {
			t.Errorf("rule %v: events %+v, want %+v", rule, got, want)
		}
	}
}
