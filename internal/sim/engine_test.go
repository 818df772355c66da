package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rng"
)

// TestEngineReuseBitIdentical: one Engine runs plain D-PSGD, a harvest
// grid cell, drop-and-renormalize rounds with a rejoin rule, all-reduce, a
// forecast-planning policy, an MLP, then a larger fleet on a denser graph
// and a smaller one on a sparser graph, with a node down from round 0. Every Result deeply equals a fresh
// Run's, and still does after every later run: no run inherits a buffer
// another left dirty, and no Result aliases the engine's memory.
func TestEngineReuseBitIdentical(t *testing.T) {
	steps := []struct {
		name   string
		config func(t *testing.T) Config
	}{
		{"dpsgd", func(t *testing.T) Config {
			cfg := testConfig(t, 91)
			cfg.EvalGlobalModel = true
			return cfg
		}},
		{"harvest-grid-cell", func(t *testing.T) Config {
			cfg := gridCellConfig(t, 92)
			cfg.EvalGlobalModel = true
			return cfg
		}},
		{"drop-dead-catchup", func(t *testing.T) Config {
			cfg := brownoutConfig(t, 93)
			rule, err := NewCatchUp(2)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Rejoin = rule
			return cfg
		}},
		{"all-reduce", func(t *testing.T) Config {
			cfg := testConfig(t, 94)
			cfg.Algo, cfg.EvalGlobalModel = core.AllReduce(), true
			return cfg
		}},
		{"horizon-plan", func(t *testing.T) Config { return mpcConfig(t, 95) }},
		{"mlp", func(t *testing.T) Config {
			cfg := testConfig(t, 96)
			cfg.ModelFactory = func(_ int, r *rng.RNG) *nn.Network { return nn.MLP(8, []int{16, 12}, 6, r) }
			cfg.EvalGlobalModel = true
			return cfg
		}},
		{"larger", func(t *testing.T) Config {
			cfg := gridShapedNodes(t, 97, 40)
			cfg.EvalGlobalModel = true
			return cfg
		}},
		{"smaller", func(t *testing.T) Config {
			// Node 0 starts browned out, so its revival's staleness counts
			// from before round 0.
			cfg := brownoutConfigNodes(t, 98, 6)
			cfg.Rejoin = RestoreCheckpoint{}
			fleet, live := cfg.Harvest, make([]bool, 6)
			cfg.Liveness = func(round int) []bool {
				copy(live, fleet.Live())
				live[0] = live[0] && round >= 3
				return live
			}
			return cfg
		}},
	}
	var e Engine
	reused, fresh := make([]*Result, len(steps)), make([]*Result, len(steps))
	for k, step := range steps {
		var err error
		if reused[k], err = e.Run(step.config(t)); err != nil {
			t.Fatalf("%s on the engine: %v", step.name, err)
		}
		if fresh[k], err = Run(step.config(t)); err != nil {
			t.Fatalf("%s fresh: %v", step.name, err)
		}
		if !reflect.DeepEqual(reused[k], fresh[k]) {
			t.Fatalf("%s: the engine's run differs from a fresh run's (final mean accuracy %v, fresh %v)",
				step.name, reused[k].FinalMeanAcc, fresh[k].FinalMeanAcc)
		}
	}
	for k, step := range steps {
		if !reflect.DeepEqual(reused[k], fresh[k]) {
			t.Errorf("%s: the engine's result changed under the runs after it", step.name)
		}
	}
}

// TestWarmRunHoldsNoNodeState: a second run of one shape on an Engine
// builds no node state. With a 15 366-parameter MLP on 32 nodes it
// allocates under 0.1 model vectors per node at any GOMAXPROCS (the one
// network that draws the models, the result, the history); and at
// GOMAXPROCS 1 it allocates exactly as often at 300 nodes as at 8 in plain
// D-PSGD, in drop-and-renormalize rounds and with an MLP. Counts are
// skipped under the race detector, bytes are not.
func TestWarmRunHoldsNoNodeState(t *testing.T) {
	const nodes = 32
	wide := func(t *testing.T) Config {
		cfg := testConfigNodes(t, 7, nodes)
		cfg.ModelFactory = func(_ int, r *rng.RNG) *nn.Network { return nn.MLP(8, []int{1024}, 6, r) }
		cfg.Rounds, cfg.EvalSubsample = 3, 64
		return cfg
	}
	vecBytes := 8 * float64(nn.MLP(8, []int{1024}, 6, rng.New(1)).ParamCount())
	var e Engine
	if _, err := e.Run(wide(t)); err != nil {
		t.Fatal(err)
	}
	least := math.Inf(1)
	for range 2 {
		cfg := wide(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := e.Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc))
	}
	if least >= 0.1*nodes*vecBytes {
		t.Errorf("a warm run allocated %.3f model vectors per node (%.0f bytes), budget 0.1", least/(nodes*vecBytes), least)
	}
	t.Logf("a warm run allocates %.3f model vectors per node", least/(nodes*vecBytes))

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
				var e Engine
				if _, err := e.Run(config(t, 86, nodes)); err != nil {
					t.Fatal(err)
				}
				least := math.Inf(1)
				for range 5 {
					cfgs := []Config{config(t, 86, nodes), config(t, 86, nodes)} // AllocsPerRun warms up once
					least = min(least, testing.AllocsPerRun(1, func() {
						_, err := e.Run(cfgs[0])
						cfgs = cfgs[1:]
						if err != nil {
							t.Fatal(err)
						}
					}))
				}
				return least
			}
			if small, large := allocs(8), allocs(300); large != small {
				t.Fatalf("a warm run allocates %v times at 8 nodes, %v at 300: %v per node", small, large, (large-small)/292)
			} else {
				t.Logf("%v allocations a warm run", small)
			}
		})
	}
}
