package sim

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// gridCellConfig is a Γ-grid cell in miniature: Γ(1,3) with a
// charge-proportional policy over a diurnal fleet, routing through depleted
// nodes, evaluated after the last round only, on a subsample.
func gridCellConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	cfg := harvestConfig(t, seed)
	gamma, err := core.NewGamma(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Algo.Schedule = gamma
	cfg.EvalEvery, cfg.EvalSubsample = 0, 40
	return cfg
}

// TestRunAllocsIndependentOfRounds pins allocation as a set-up cost: at
// GOMAXPROCS 1 (above it par.ForOn spawns its workers per phase) a run of 3R
// rounds allocates exactly as often as one of R rounds, in plain D-PSGD
// under Γ(1,3), in a harvest-coupled grid cell, in drop-and-renormalize
// rounds with and without a rejoin rule, and when every round evaluates on
// a redrawn subsample.
func TestRunAllocsIndependentOfRounds(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name   string
		config func(t *testing.T) Config
	}{
		{"plain-gamma", func(t *testing.T) Config {
			cfg := testConfig(t, 81)
			gamma, err := core.NewGamma(1, 3)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Algo, cfg.EvalEvery = core.SkipTrain(gamma), 0
			return cfg
		}},
		{"harvest-grid-cell", func(t *testing.T) Config { return gridCellConfig(t, 82) }},
		{"drop-dead-nodes", func(t *testing.T) Config { return brownoutConfig(t, 83) }},
		{"rejoin-catchup", func(t *testing.T) Config {
			cfg := brownoutConfig(t, 83)
			rule, err := NewCatchUp(2)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Rejoin = rule
			return cfg
		}},
		{"eval-every-round", func(t *testing.T) Config {
			cfg := testConfig(t, 84)
			cfg.EvalEvery, cfg.EvalSubsample = 1, 40
			return cfg
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The least of a few measurements: a collection in mid-run empties
			// the sync.Pools (fmt's, under the manifest) and adds a stray
			// allocation or two. Configs are built outside the measurement: a
			// fleet and a policy serve one run each.
			allocs := func(rounds int) float64 {
				least := math.Inf(1)
				for try := 0; try < 5; try++ {
					cfgs := []Config{tc.config(t), tc.config(t)} // AllocsPerRun warms up once
					least = min(least, testing.AllocsPerRun(1, func() {
						cfgs[0].Rounds = rounds
						res, err := Run(cfgs[0])
						cfgs = cfgs[1:]
						if err != nil {
							t.Fatal(err)
						}
						if tc.name == "drop-dead-nodes" && res.TotalDroppedSends == 0 {
							t.Fatal("no send was dropped: the trace did not brown any node out")
						}
						if tc.name == "rejoin-catchup" && res.TotalRestores == 0 {
							t.Fatal("no revival was restored: the rejoin rule never ran")
						}
					}))
				}
				return least
			}
			if short, long := allocs(12), allocs(36); long != short {
				t.Fatalf("12 rounds allocate %v times, 36 rounds %v: %v allocations per round inside the loop", short, long, (long-short)/24)
			}
		})
	}
}

// TestRunAllocsIndependentOfNodes is TestRunAllocsIndependentOfRounds'
// companion for set-up: node state, models included, comes from per-run
// slabs (learner.NewNodes) and networks are per worker, so a run of 300
// nodes (past the paper's 256, past 99, where strconv.Itoa starts to
// allocate, and past 255, where boxing an int does) allocates exactly as
// often as a run of 8, in plain D-PSGD with an evaluation every few rounds,
// in the same with a two-hidden-layer MLP and in drop-and-renormalize
// rounds over a harvest fleet.
// Fleets, partitions and graphs are inputs, built outside the measurement.
func TestRunAllocsIndependentOfNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for name, config := range map[string]func(t *testing.T, seed uint64, nodes int) Config{
		"plain":           testConfigNodes,
		"drop-dead-nodes": brownoutConfigNodes,
		"mlp": func(t *testing.T, seed uint64, nodes int) Config {
			cfg := testConfigNodes(t, seed, nodes)
			cfg.ModelFactory = func(_ int, r *rng.RNG) *nn.Network { return nn.MLP(8, []int{16, 12}, 6, r) }
			return cfg
		},
	} {
		t.Run(name, func(t *testing.T) {
			allocs := func(nodes int) float64 {
				least := math.Inf(1)
				for try := 0; try < 5; try++ {
					cfgs := []Config{config(t, 86, nodes), config(t, 86, nodes)} // AllocsPerRun warms up once
					least = min(least, testing.AllocsPerRun(1, func() {
						_, err := Run(cfgs[0])
						cfgs = cfgs[1:]
						if err != nil {
							t.Fatal(err)
						}
					}))
				}
				return least
			}
			if small, large := allocs(8), allocs(300); large != small {
				t.Fatalf("8 nodes allocate %v times, 300 nodes %v: %v per node", small, large, (large-small)/292)
			}
		})
	}
}

// TestHoistedRoundStateBitIdentical: the phase bodies share round state
// written between barriers; the drop-mode and harvest-coupled runs give the
// same bits at GOMAXPROCS 1 and 8 (and, under -race, share it cleanly).
func TestHoistedRoundStateBitIdentical(t *testing.T) {
	for name, config := range map[string]func(*testing.T, uint64) Config{
		"harvest-grid-cell": gridCellConfig,
		"drop-dead-nodes":   brownoutConfig,
	} {
		digest := func(procs int) string {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			cfg := config(t, 85)
			cfg.EvalEvery, cfg.EvalGlobalModel = 1, true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return resultDigest(res)
		}
		if serial, wide := digest(1), digest(8); serial != wide {
			t.Errorf("%s: digest %s at GOMAXPROCS 1, %s at 8", name, serial, wide)
		}
	}
}

// gridShapedConfig is a Γ-grid cell's shape: 16 nodes on a 6-regular
// graph, logistic regression from 32 inputs onto 10 classes (330
// parameters), Γ(4,4), eight local steps, evaluated once on a subsample.
func gridShapedConfig(t *testing.T, seed uint64) Config { return gridShapedNodes(t, seed, 16) }

// gridShapedNodes is gridShapedConfig on another number of nodes, at
// most 6 neighbors each.
func gridShapedNodes(t *testing.T, seed uint64, nodes int) Config {
	t.Helper()
	g, err := graph.Regular(nodes, min(6, nodes-1), seed)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := dataset.Generate(dataset.SyntheticConfig{Classes: 10, Dim: 32, Train: 40 * nodes, Test: 160, Noise: 2.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	part, err := dataset.ShardPartition(train, nodes, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	gamma, err := core.NewGamma(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph: g, Weights: graph.Metropolis(g), Algo: core.SkipTrain(gamma), Rounds: 12,
		ModelFactory: func(_ int, r *rng.RNG) *nn.Network { return nn.LogisticRegression(32, 10, r) },
		LR:           0.2, BatchSize: 16, LocalSteps: 8,
		Partition: part, Test: test, EvalSubsample: 80, Seed: seed,
	}
}

// TestFleetMeanAllocatesNothing: the fleet mean is a window of the mix
// scratch, so a Γ-grid-shaped run that scores the averaged model and
// tracks consensus allocates exactly as often as one that does neither.
// Under the race detector the runs still go, counts unchecked.
func TestFleetMeanAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := func(mean bool) float64 {
		least := math.Inf(1)
		for try := 0; try < 5; try++ {
			cfg := gridShapedConfig(t, 87)
			cfg.EvalGlobalModel = mean
			least = min(least, testing.AllocsPerRun(2, func() {
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if mean && (res.FinalGlobalAcc == 0 || res.History[len(res.History)-1].Consensus == 0) {
					t.Fatal("the averaged model was not scored or consensus not tracked")
				}
			}))
		}
		return least
	}
	plain, mean := allocs(false), allocs(true)
	if raceEnabled {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	if mean != plain {
		t.Fatalf("a run allocates %v times, %v with EvalGlobalModel", plain, mean)
	}
}

// TestFinalGlobalParamsIsTheFleetMean: FinalGlobalParams is, bit for bit,
// the mean of the final node models, Σ v/N in node order, p long and capped there —
// in a Γ-grid-shaped run, under all-reduce,
// and with a model longer than the mix scratch would be without it — at
// GOMAXPROCS 1 and 8.
func TestFinalGlobalParamsIsTheFleetMean(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		edit  func(*Config)
	}{
		{"grid-shaped", 16, func(c *Config) { c.EvalGlobalModel = true }},
		{"all-reduce", 16, func(c *Config) { c.Algo, c.EvalGlobalModel = core.AllReduce(), true }},
		// 3 412 parameters on 4 nodes: the mix scratch alone would be 4
		// blocks of at most 256 per worker.
		{"wider-than-mix", 4, func(c *Config) {
			c.ModelFactory = func(_ int, r *rng.RNG) *nn.Network { return nn.MLP(32, []int{64}, 20, r) }
			c.EvalGlobalModel = true
		}},
	} {
		for _, procs := range []int{1, 8} {
			old := runtime.GOMAXPROCS(procs)
			cfg := gridShapedNodes(t, 88, tc.nodes)
			tc.edit(&cfg)
			var models []tensor.Vector
			cfg.seeModels = func(ms []tensor.Vector) { models = ms }
			res, err := Run(cfg)
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatal(err)
			}
			p, w := len(models[0]), 1/float64(len(models))
			want := tensor.NewVector(p)
			for i := range want {
				want[i] = w * models[0][i]
				for _, m := range models[1:] {
					want[i] += w * m[i]
				}
			}
			got := res.FinalGlobalParams
			if len(got) != p || cap(got) != p {
				t.Fatalf("%s at GOMAXPROCS %d: FinalGlobalParams has len %d, cap %d; want %d", tc.name, procs, len(got), cap(got), p)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s at GOMAXPROCS %d: FinalGlobalParams[%d] = %v, the mean of the final models %v", tc.name, procs, i, got[i], want[i])
				}
			}
		}
	}
}
