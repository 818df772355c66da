package async

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/rng"
)

func testConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	g, err := graph.Regular(12, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataset.SyntheticConfig{Classes: 6, Dim: 8, Train: 480, Test: 240, Noise: 1.5, Seed: seed}
	train, test, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	part, err := dataset.ShardPartition(train, 12, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph:   g,
		Algo:    core.SkipTrain(core.Gamma{GammaTrain: 2, GammaSync: 2}),
		Horizon: 200,
		ModelFactory: func(node int, r *rng.RNG) *nn.Network {
			return nn.LogisticRegression(8, 6, r)
		},
		LR: 0.1, BatchSize: 8, LocalSteps: 2,
		Partition: part, Test: test,
		Devices:          energy.AssignDevices(12, energy.Devices()),
		Workload:         energy.CIFAR10Workload(),
		EvalEverySeconds: 50,
		EvalSubsample:    120,
		Seed:             seed,
	}
}

func TestAsyncLearns(t *testing.T) {
	res, err := Run(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalMeanAcc < 0.35 { // chance = 1/6
		t.Fatalf("async run did not learn: %.3f", res.FinalMeanAcc)
	}
	if res.GossipsSent == 0 {
		t.Fatal("no gossip happened")
	}
	if len(res.History) < 3 {
		t.Fatalf("expected periodic evaluations, got %d", len(res.History))
	}
}

func TestAsyncDeterministic(t *testing.T) {
	r1, err := Run(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r1.FinalMeanAcc != r2.FinalMeanAcc || r1.GossipsSent != r2.GossipsSent {
		t.Fatalf("async runs differ: %.6f/%d vs %.6f/%d",
			r1.FinalMeanAcc, r1.GossipsSent, r2.FinalMeanAcc, r2.GossipsSent)
	}
	for i := range r1.StepsPerNode {
		if r1.StepsPerNode[i] != r2.StepsPerNode[i] {
			t.Fatal("per-node step counts differ across identical runs")
		}
	}
}

func TestAsyncHeterogeneousPacing(t *testing.T) {
	// The OnePlus Nord 2 (2.34 s/round) must complete more steps than the
	// Poco X3 (6.12 s/round) in the same horizon — the defining property
	// of the asynchronous engine.
	res, err := Run(testConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Devices assigned round-robin: index 2 is Nord 2, index 3 is Poco X3.
	fast := res.StepsPerNode[2] + res.StepsPerNode[6] + res.StepsPerNode[10]
	slow := res.StepsPerNode[3] + res.StepsPerNode[7] + res.StepsPerNode[11]
	if fast <= slow {
		t.Fatalf("fast devices took %d steps, slow took %d; pacing broken", fast, slow)
	}
}

func TestAsyncScheduleReducesEnergy(t *testing.T) {
	// SkipTrain(1,1) vs all-train at the same virtual horizon. Unlike the
	// synchronous engine, skipping does not halve energy here: a gossip
	// step is 10x faster than a training step, so a (1,1) node reaches its
	// next training step after 1 + 1/10 training-durations. The analytic
	// prediction is ratio = speedup/(speedup+1) = 0.909 — asynchronous
	// energy savings are governed by the sync/train *duration* ratio, not
	// the schedule alone. This is a genuine finding of the async extension
	// (see package docs) and the engine must match it.
	cfgSkip := testConfig(t, 4)
	cfgSkip.Algo = core.SkipTrain(core.Gamma{GammaTrain: 1, GammaSync: 1})
	skip, err := Run(cfgSkip)
	if err != nil {
		t.Fatal(err)
	}
	cfgFull := testConfig(t, 4)
	cfgFull.Algo = core.DPSGD()
	full, err := Run(cfgFull)
	if err != nil {
		t.Fatal(err)
	}
	ratio := skip.TotalTrainWh / full.TotalTrainWh
	if predicted := syncSpeedup / (syncSpeedup + 1.0); math.Abs(ratio-predicted) > 0.06 {
		t.Fatalf("energy ratio %.3f, analytic prediction %.3f", ratio, predicted)
	}
	// Training steps obey the alternating pattern per node: trained steps
	// are about half of total steps.
	for i, steps := range skip.StepsPerNode {
		if steps < 2 {
			continue
		}
		frac := float64(skip.TrainedSteps[i]) / float64(steps)
		if frac < 0.3 || frac > 0.7 {
			t.Fatalf("node %d trained %.0f%% of steps under (1,1) schedule", i, frac*100)
		}
	}
}

func TestAsyncConsensusShrinks(t *testing.T) {
	cfg := testConfig(t, 5)
	// Gossip-only run: zero budgets mean nobody ever trains, so gossip
	// must contract the consensus distance.
	cfg.Algo = core.Greedy(make([]int, 12))
	cfg.EvalEverySeconds = 25
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := res.History[0].Consensus
	last := res.History[len(res.History)-1].Consensus
	if last >= first {
		t.Fatalf("gossip did not contract consensus: %.4f -> %.4f", first, last)
	}
}

func TestAsyncBudgetRespected(t *testing.T) {
	cfg := testConfig(t, 6)
	cfg.Algo = core.Greedy(taus(12, 3))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.TrainedSteps {
		if tr > 3 {
			t.Fatalf("node %d trained %d steps with budget 3", i, tr)
		}
	}
}

// taus is n per-node budgets of tau rounds each.
func taus(n, tau int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = tau
	}
	return out
}

// Only a completed training step spends a budget unit. Batteries that start
// empty refuse a node's first training steps; each refused step sleeps the
// node until the charge arrives and is retried, so on a horizon long enough
// to recharge every node trains its whole budget.
func TestAsyncBudgetSpentOnlyByCompletedSteps(t *testing.T) {
	cfg := testConfig(t, 6)
	cfg.Algo = core.Greedy(taus(12, 3))
	cfg.Trace = harvest.Constant{Wh: 0.5 * meanStepWh(cfg)}
	cfg.FleetOptions = harvest.Options{CapacityRounds: 8, StartEmpty: true}
	cfg.Horizon = 2000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.TrainedSteps {
		if tr != 3 {
			t.Fatalf("node %d trained %d steps, want its whole budget of 3", i, tr)
		}
	}
}

// One Greedy and one SkipTrain-constrained value each drive two runs: the
// budget a node has spent is the engine's count of its trained steps, so the
// policies hold no run state and the two runs are the same run.
func TestBudgetPolicyServesManyRuns(t *testing.T) {
	tau := []int{0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20}
	gamma := core.Gamma{GammaTrain: 1, GammaSync: 1}
	for _, algo := range []core.Algorithm{core.Greedy(tau), core.SkipTrainConstrained(gamma, 40, tau)} {
		cfg := testConfig(t, 6)
		cfg.Algo = algo
		first, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", algo.Label, err)
		}
		again, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: a second run on one policy value: %v", algo.Label, err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("%s: the second run on one policy value differs from the first", algo.Label)
		}
		trained := 0
		for i, tr := range first.TrainedSteps {
			if tr > tau[i] {
				t.Fatalf("%s: node %d trained %d steps with budget %d", algo.Label, i, tr, tau[i])
			}
			trained += tr
		}
		if trained == 0 {
			t.Fatalf("%s: no node trained", algo.Label)
		}
	}
}

// A hysteresis policy carries its dormant nodes out of a run. A second run
// on the same policy would start them asleep, so it is rejected as sim.Run
// rejects it, and runs again once reset.
func TestAsyncRejectsConsumedPolicy(t *testing.T) {
	cfg := harvestConfig(t, 6, nil)
	cfg.Trace = scarceDiurnal(t, cfg)
	policy, err := harvest.NewSoCHysteresis(cfg.Graph.N, 0.3, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Algo.Policy = policy
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !policy.Consumed() {
		t.Fatal("the first run left no node dormant")
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "already consumed by a prior run") {
		t.Fatalf("rerun on a consumed policy: err = %v", err)
	}
	policy.Reset()
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.FinalMeanAcc != again.FinalMeanAcc || !reflect.DeepEqual(first.TrainedSteps, again.TrainedSteps) {
		t.Fatalf("post-Reset run differs: accuracy %v vs %v, trained %v vs %v",
			first.FinalMeanAcc, again.FinalMeanAcc, first.TrainedSteps, again.TrainedSteps)
	}
}

func TestAsyncStepsCap(t *testing.T) {
	cfg := testConfig(t, 7)
	cfg.StepsPerNode = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.StepsPerNode {
		if s > 5 {
			t.Fatalf("node %d took %d steps, cap is 5", i, s)
		}
	}
}

// Every float range is written as the condition a valid value satisfies, so
// NaN and the infinities fail it: a NaN learning rate used to pass "LR <= 0"
// and run to a 10% final accuracy. An infinite horizon would never finish,
// so it comes after the cases that stop a parent of this test at once.
func TestAsyncNonFiniteFloatsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"lr NaN", func(c *Config) { c.LR = nan }},
		{"lr +Inf", func(c *Config) { c.LR = inf }},
		{"lr -Inf", func(c *Config) { c.LR = -inf }},
		{"eval period NaN", func(c *Config) { c.EvalEverySeconds = nan }},
		{"eval period negative", func(c *Config) { c.EvalEverySeconds = -1 }},
		{"round seconds NaN", func(c *Config) { c.RoundSeconds = nan }},
		{"round seconds +Inf", func(c *Config) { c.RoundSeconds = inf }},
		{"horizon NaN", func(c *Config) { c.Horizon = nan }},
		{"horizon -Inf", func(c *Config) { c.Horizon = -inf }},
		{"horizon +Inf", func(c *Config) { c.Horizon = inf }},
	} {
		cfg := testConfig(t, 8)
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s: want validation error", tc.name)
		}
	}
}

// An evaluation period is bounded by the run's own inputs: one that does
// not advance the clock at the horizon, or that asks for more evaluations
// than the fleet has step slots, is refused with both values named instead
// of sizing a history from Horizon/EvalEverySeconds. A period of one
// second (200 evaluations against 693 slots) still runs.
func TestAsyncRejectsEvalPeriodBeyondStepSlots(t *testing.T) {
	for _, every := range []float64{1e-15, 1e-300, 5e-324, 0.05} {
		cfg := testConfig(t, 8)
		cfg.EvalEverySeconds = every
		_, err := Run(cfg)
		if err == nil {
			t.Fatalf("period %v: want an error", every)
		}
		for _, v := range []float64{every, cfg.Horizon} {
			if !strings.Contains(err.Error(), fmt.Sprint(v)) {
				t.Fatalf("period %v: error %q does not name %v", every, err, v)
			}
		}
	}
	cfg := testConfig(t, 8)
	cfg.EvalEverySeconds = 1
	res, err := Run(cfg)
	if err != nil || len(res.History) != 200 {
		t.Fatalf("period 1: %v", err)
	}
}

func TestAsyncValidation(t *testing.T) {
	// The checks both engines share are internal/learner's table; these
	// are the event engine's own.
	mutations := map[string]func(*Config){
		"horizon": func(c *Config) { c.Horizon = 0 },
		// Devices set every node's step duration.
		"no devices": func(c *Config) { c.Devices = nil },
		// The engine only gossips pairwise: All-Reduce is refused, not run
		// as gossip under its label.
		"global aggregation": func(c *Config) { c.Algo = core.AllReduce() },
	}
	for name, mutate := range mutations {
		cfg := testConfig(t, 8)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s: want validation error", name)
		}
	}
	// Harvest-specific knobs need a consistent configuration too.
	harvestMutations := map[string]func(*Config){
		"negative round seconds": func(c *Config) { c.RoundSeconds = -1 },
		"learning forecaster": func(c *Config) {
			c.Trace = harvest.Constant{Wh: 0.01}
			p, err := harvest.NewPersistence(12, 6)
			if err != nil {
				t.Fatal(err)
			}
			c.Forecast = p
			c.ForecastHorizon = 4
		},
		"bad fleet options": func(c *Config) {
			c.Trace = harvest.Constant{Wh: 0.01}
			c.FleetOptions = harvest.Options{CutoffSoC: 2}
		},
	}
	for name, mutate := range harvestMutations {
		cfg := testConfig(t, 8)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s: want validation error", name)
		}
	}
}

func TestAsyncEnergyAccountingMatchesSteps(t *testing.T) {
	cfg := testConfig(t, 9)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i, tr := range res.TrainedSteps {
		want += float64(tr) * cfg.Devices[i].TrainRoundWh(cfg.Workload)
	}
	if math.Abs(res.TotalTrainWh-want) > 1e-9 {
		t.Fatalf("energy %.6f, expected %.6f from step counts", res.TotalTrainWh, want)
	}
}

func TestEventQueueOrdering(t *testing.T) {
	q := &eventQueue{}
	*q = append(*q, event{time: 2, node: 0, seq: 0}, event{time: 1, node: 1, seq: 1},
		event{time: 1, node: 2, seq: 2})
	// heap.Init via Run path; test Less directly.
	if !(*q).Less(1, 0) {
		t.Fatal("earlier time must order first")
	}
	if !(*q).Less(1, 2) {
		t.Fatal("equal times must order by sequence")
	}
}

// Telemetry must be invisible to the async engine too: identical results
// with a probe attached, plus a stamped manifest and a closed event stream.
func TestAsyncTelemetry(t *testing.T) {
	plain, err := Run(testConfig(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 5)
	mem := obstest.NewMemory()
	cfg.Probe = obs.NewProbe(mem)
	probed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.FinalMeanAcc != probed.FinalMeanAcc || plain.GossipsSent != probed.GossipsSent {
		t.Fatal("telemetry changed the async run")
	}
	if probed.Manifest.Engine != "async" || probed.Manifest.ConfigHash == "" {
		t.Fatalf("bad manifest: %+v", probed.Manifest)
	}
	if plain.Manifest.ConfigHash != probed.Manifest.ConfigHash {
		t.Fatal("identical configs hashed differently")
	}
	if countKind(mem.Events(), obs.KindRunStart) != 1 || countKind(mem.Events(), obs.KindRunEnd) != 1 {
		t.Fatalf("run events: %d start, %d end", countKind(mem.Events(), obs.KindRunStart), countKind(mem.Events(), obs.KindRunEnd))
	}
	if got, want := countKind(mem.Events(), obs.KindEval), len(probed.History); got != want {
		t.Fatalf("eval events = %d, want %d (one per snapshot)", got, want)
	}
	for _, ev := range mem.Events() {
		if ev.Kind == obs.KindEval && ev.VTime <= 0 {
			t.Fatalf("eval event missing virtual time: %+v", ev)
		}
	}
}

// Eval ticks are heap events now, so a sparse event stream cannot skip
// evaluation periods: two slow nodes stepping every ~6 virtual seconds
// with a 5-second eval period must still produce every snapshot. The old
// pop-coupled catch-up fired at most one eval per popped event and
// silently dropped the rest.
func TestAsyncEvalCatchUpOnSparseStreams(t *testing.T) {
	g, err := graph.Complete(2)
	if err != nil {
		t.Fatal(err)
	}
	cfgData := dataset.SyntheticConfig{Classes: 4, Dim: 6, Train: 64, Test: 64, Noise: 1.5, Seed: 11}
	train, test, err := dataset.Generate(cfgData)
	if err != nil {
		t.Fatal(err)
	}
	part, err := dataset.ShardPartition(train, 2, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	devices := energy.Devices()
	slow := []energy.Device{devices[3], devices[3]} // Poco X3: 6.12 s/step
	cfg := Config{
		Graph:   g,
		Algo:    core.DPSGD(),
		Horizon: 100,
		ModelFactory: func(node int, r *rng.RNG) *nn.Network {
			return nn.LogisticRegression(6, 4, r)
		},
		LR: 0.1, BatchSize: 8, LocalSteps: 1,
		Partition: part, Test: test,
		Devices:          slow,
		Workload:         energy.CIFAR10Workload(),
		EvalEverySeconds: 5,
		Seed:             11,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Ticks at 5, 10, ..., 95 plus the final evaluation at the horizon.
	if want := 20; len(res.History) != want {
		t.Fatalf("history has %d snapshots, want %d", len(res.History), want)
	}
	for i, snap := range res.History[:len(res.History)-1] {
		if want := float64(i+1) * 5; snap.Time != want {
			t.Fatalf("snapshot %d at t=%v, want %v", i, snap.Time, want)
		}
	}
	if last := res.History[len(res.History)-1]; last.Time != 100 {
		t.Fatalf("final snapshot at t=%v, want horizon 100", last.Time)
	}
}

// horizonRecorder captures the contexts a policy sees.
type horizonRecorder struct {
	horizons map[int][]int
}

func (h *horizonRecorder) Participate(node int, ctx core.RoundContext, _ *rng.RNG) bool {
	if h.horizons == nil {
		h.horizons = map[int][]int{}
	}
	h.horizons[node] = append(h.horizons[node], ctx.Horizon)
	return true
}

func (h *horizonRecorder) Name() string { return "horizon-recorder" }

// The async engine threads a real step-count horizon into every round
// context (the old engine hardcoded 0, degenerating horizon-aware
// schedules). Each node's horizon is how many of its training-step
// durations fit in the virtual horizon, clamped by StepsPerNode.
func TestAsyncContextCarriesHorizon(t *testing.T) {
	cfg := testConfig(t, 12)
	rec := &horizonRecorder{}
	cfg.Algo = core.Algorithm{Label: "rec", Schedule: core.AllTrain{}, Policy: rec}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for node, hs := range rec.horizons {
		want := int(math.Ceil(cfg.Horizon / cfg.Devices[node].TrainRoundSeconds(cfg.Workload)))
		for _, h := range hs {
			if h != want {
				t.Fatalf("node %d saw horizon %d, want %d", node, h, want)
			}
		}
	}
	capped := testConfig(t, 12)
	capped.StepsPerNode = 3
	rec2 := &horizonRecorder{}
	capped.Algo = core.Algorithm{Label: "rec", Schedule: core.AllTrain{}, Policy: rec2}
	if _, err := Run(capped); err != nil {
		t.Fatal(err)
	}
	for node, hs := range rec2.horizons {
		for _, h := range hs {
			if h != 3 {
				t.Fatalf("node %d saw horizon %d with StepsPerNode 3", node, h)
			}
		}
	}
	// A horizon of 1e300 s holds more steps than an int counts: the cap is
	// compared before the count is converted (it once came out as the
	// minimum int, so T was negative), and without a cap the run is refused.
	capped.Horizon, capped.EvalEverySeconds = 1e300, 0
	rec3 := &horizonRecorder{}
	capped.Algo = core.Algorithm{Label: "rec", Schedule: core.AllTrain{}, Policy: rec3}
	if _, err := Run(capped); err != nil {
		t.Fatal(err)
	}
	for node, hs := range rec3.horizons {
		for _, h := range hs {
			if h != 3 {
				t.Fatalf("node %d saw horizon %d in a 1e300 s horizon with StepsPerNode 3", node, h)
			}
		}
	}
	capped.StepsPerNode = 0
	if _, err := Run(capped); err == nil || !strings.Contains(err.Error(), "StepsPerNode") {
		t.Fatalf("uncapped 1e300 s horizon: %v, want an error naming StepsPerNode", err)
	}
}

// countKind counts the events of the given kind.
func countKind(events []obs.Event, kind string) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}
