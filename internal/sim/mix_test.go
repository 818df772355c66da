package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// resultDigest hashes everything a former reader of the per-node
// aggregation buffer feeds: the whole History (accuracies, consensus
// distance, rejoin counters; %v prints floats in their shortest
// round-tripping form) and the bits of the final consensus model.
func resultDigest(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", res.History)
	var b [8]byte
	for _, v := range res.FinalGlobalParams {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPostAggregationReadersPinned pins, against digests captured before
// the aggregation buffer was removed, the two runs that between them go
// through every reader of post-aggregation state: the evaluator's global
// model, the consensus metric, FinalGlobalParams and the rejoin rule's
// frozen model and neighbor mean on one side, the all-reduce commit on the
// other.
func TestPostAggregationReadersPinned(t *testing.T) {
	brownout := func() Config {
		cfg := brownoutConfigNodes(t, 61, 12)
		rule, err := NewCatchUp(2)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Rejoin = rule
		return cfg
	}
	allReduce := func() Config {
		cfg := testConfigNodes(t, 62, 12)
		cfg.Algo = core.AllReduce()
		return cfg
	}
	// Plain neighborhood aggregation under Γ(1,2), evaluated after every
	// round and stopped after an odd and an even number of them.
	neighborhood := func(rounds int) func() Config {
		return func() Config {
			cfg := testConfigNodes(t, 63, 12)
			gamma, err := core.NewGamma(1, 2)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Algo, cfg.Rounds, cfg.EvalEvery = core.SkipTrain(gamma), rounds, 1
			return cfg
		}
	}
	for _, tc := range []struct {
		name   string
		config func() Config
		want   string
	}{
		{"brownout-checkpoint", brownout, "6f82e62e4fa05ba705b188a57da827d045349b59b092972b76bd0f1b3e9e5335"},
		{"all-reduce", allReduce, "9f5f55fc6b3463004cba79620f9583a0ba8b2cb6c897e2b7ac859d29e2100dcf"},
		{"neighborhood-7-rounds", neighborhood(7), "75c7318387b30254f6a91e63883d5f4e668f498d6eaaf73bc4fa45798de8240d"},
		{"neighborhood-8-rounds", neighborhood(8), "db75f3afa9ce94bda2332a1e41e8795f8890e03c4a8cc3ff1dabebfe24286f40"},
	} {
		for _, procs := range []int{1, 8} {
			old := runtime.GOMAXPROCS(procs)
			cfg := tc.config()
			cfg.EvalGlobalModel, cfg.TrackConsensus = true, true
			res, err := Run(cfg)
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Rejoin != nil && (res.TotalRestores == 0 || res.TotalDroppedSends == 0) {
				t.Fatalf("%s: %d restores, %d dropped sends: the rejoin path did not run", tc.name, res.TotalRestores, res.TotalDroppedSends)
			}
			if got := resultDigest(res); got != tc.want {
				t.Errorf("%s at GOMAXPROCS %d: digest %s, want %s", tc.name, procs, got, tc.want)
			}
		}
	}
}

// TestRunHoldsOneModelVectorPerNode is the buffer budget of a run shaped
// like the wide-model benchmark (32 nodes, a 44 042-parameter MLP, one tiny
// train step, evaluation after the last round only): a node owns its
// parameters and nothing else the size of a model — it publishes them in
// place, mixes into them block by block and trains into a gradient vector
// the run lends it — and nothing that size is allocated once the rounds
// have started.
func TestRunHoldsOneModelVectorPerNode(t *testing.T) {
	const nodes, hidden = 32, 1024
	g, err := graph.Regular(nodes, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := dataset.Generate(dataset.SyntheticConfig{Classes: 10, Dim: 32, Train: 40 * nodes, Test: 320, Noise: 2.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	part, err := dataset.ShardPartition(train, nodes, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	gamma, err := core.NewGamma(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	model := func(_ int, r *rng.RNG) *nn.Network { return nn.MLP(32, []int{hidden}, 10, r) }
	vecBytes := 8 * float64(model(0, rng.New(1)).ParamCount())
	allocated := func(rounds int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Run(Config{
			Graph: g, Weights: graph.Metropolis(g),
			Algo:         core.Algorithm{Label: "wide", Schedule: gamma, Policy: core.AlwaysTrain{}},
			Rounds:       rounds,
			ModelFactory: model,
			LR:           0.1, BatchSize: 4, LocalSteps: 1,
			Partition: part, Test: test, EvalSubsample: 64,
			Seed: 7,
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	short, long := allocated(8), allocated(16)
	// 1.3 per node with one worker: the model, 1/32 of the lent gradient
	// vector and the layers' activations; each further worker is lent its own.
	extra := float64(min(runtime.GOMAXPROCS(0), nodes) - 1)
	if budget := (1.3*nodes + extra) * vecBytes; short > budget {
		t.Errorf("an 8-round run allocated %.2f model vectors per node (%.0f bytes), budget 1.3 and %v for the workers", short/(nodes*vecBytes), short, extra)
	}
	if long-short >= vecBytes {
		t.Errorf("8 more rounds allocated %.0f more bytes: a model vector (%.0f bytes) or more inside the round loop", long-short, vecBytes)
	}
	t.Logf("%.3f model vectors per node; 8 more rounds add %.0f bytes", short/(nodes*vecBytes), long-short)
}

// syncOnly schedules nothing but synchronization rounds, so a run's models
// are its initial models mixed once per round and nothing else.
type syncOnly struct{}

func (syncOnly) Kind(int) core.RoundKind { return core.RoundSync }
func (syncOnly) Name() string            { return "sync-only" }

// mixGraph has every row shape the mix meets: degrees 1 to 4 — so the
// kernel's scale, its three-operand pass and its AXPY tail all run — and an
// isolated node, whose row is its own model alone.
func mixGraph() *graph.Graph {
	return &graph.Graph{N: 7, Adj: [][]int{{1, 2, 3, 4}, {0, 2, 3}, {0, 1}, {0, 1}, {0}, {}, {}}}
}

// churn browns a different third of an n-node fleet out each round; round 1
// is all live, so configured and renormalized rows both mix.
func churn(t, n int) []bool {
	if t == 1 {
		return nil
	}
	live := make([]bool, n)
	for i := range live {
		live[i] = (i+t)%3 != 0
	}
	return live
}

// mixConfig is a sync-only run over mixGraph of models with exactly p
// parameters. It also returns the networks the run will build and a copy of
// each one's initial model.
func mixConfig(p int) (Config, []*nn.Network, []tensor.Vector) {
	g := mixGraph()
	nets, initial := make([]*nn.Network, g.N), make([]tensor.Vector, g.N)
	data := &dataset.Dataset{Samples: []dataset.Sample{{X: tensor.NewVector(p)}}, NumClasses: 1, Dim: p}
	part := make(dataset.Partition, g.N)
	for i := range part {
		part[i] = data
	}
	return Config{
		Graph: g, Weights: graph.Metropolis(g),
		Algo:   core.Algorithm{Label: "mix", Schedule: syncOnly{}, Policy: core.AlwaysTrain{}},
		Rounds: 3,
		ModelFactory: func(node int, r *rng.RNG) *nn.Network {
			nets[node] = nn.New(nn.NewDense(p, 1, false, r))
			initial[node] = nets[node].Params().Clone()
			return nets[node]
		},
		LR: 0.1, BatchSize: 1, LocalSteps: 1,
		Partition: part, Test: data,
		DropDeadNodes: true, Liveness: func(t int) []bool { return churn(t, g.N) },
		Seed: 9,
	}, nets, initial
}

// mixReference advances models by one round of cfg the plain way: one
// whole-vector tensor.WeightedSumTo per live node into a fresh vector, own
// term first, then live neighbors in adjacency order; a down node's stays.
func mixReference(cfg *Config, t int, models []tensor.Vector) []tensor.Vector {
	g, live, w := cfg.Graph, cfg.Liveness(t), cfg.Weights
	if live != nil {
		w = graph.NewWeights(g)
		graph.RenormalizeLiveTo(w, g, live)
	}
	next := make([]tensor.Vector, g.N)
	for i := range next {
		if live != nil && !live[i] {
			next[i] = models[i]
			continue
		}
		ws, vs := []float64{w.Self[i]}, []tensor.Vector{models[i]}
		for k, j := range g.Adj[i] {
			if live == nil || live[j] {
				ws, vs = append(ws, w.Nbr[i][k]), append(vs, models[j])
			}
		}
		next[i] = tensor.NewVector(len(models[i]))
		tensor.WeightedSumTo(next[i], ws, vs)
	}
	return next
}

func sameBits(a, b tensor.Vector) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestBlockedMixMatchesPerNodeSum: the in-place, block-by-block mix leaves
// every node with the bits a per-node whole-vector weighted sum over private
// copies gives, for model lengths around and far beyond the block length,
// with isolated nodes, with nodes down (renormalized rows, frozen models)
// and all live, serial and fanned out. Every node's model is also still the
// slice it was built with.
func TestBlockedMixMatchesPerNodeSum(t *testing.T) {
	for _, p := range []int{1, nn.MixBlock - 1, nn.MixBlock, nn.MixBlock + 1, 1000, 44042} {
		for _, procs := range []int{1, 8} {
			name := fmt.Sprintf("p=%d/procs=%d", p, procs)
			cfg, nets, initial := mixConfig(p)
			old := runtime.GOMAXPROCS(procs)
			_, err := Run(cfg)
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := initial
			for round := 0; round < cfg.Rounds; round++ {
				want = mixReference(&cfg, round, want)
			}
			for i, net := range nets {
				if !sameBits(net.Params(), want[i]) {
					t.Errorf("%s: node %d differs from the per-node weighted sum", name, i)
				}
			}
		}
	}
}
