package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
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
// model, the consensus metric, FinalGlobalParams, the dying-node snapshot
// and the rejoin rule's Current/NeighborMean on one side, the all-reduce
// commit on the other.
func TestPostAggregationReadersPinned(t *testing.T) {
	brownout := func() Config {
		cfg := brownoutConfigNodes(t, 61, 12)
		rule, err := checkpoint.NewCatchUp(2)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Checkpoint, err = checkpoint.NewManager(cfg.Graph.N, nil, rule); err != nil {
			t.Fatal(err)
		}
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
			if cfg.Checkpoint != nil && (res.TotalRestores == 0 || res.TotalDroppedSends == 0) {
				t.Fatalf("%s: %d restores, %d dropped sends: the rejoin path did not run", tc.name, res.TotalRestores, res.TotalDroppedSends)
			}
			if got := resultDigest(res); got != tc.want {
				t.Errorf("%s at GOMAXPROCS %d: digest %s, want %s", tc.name, procs, got, tc.want)
			}
		}
	}
}

// TestRunHoldsTwoModelVectorsPerNode is the buffer budget of a run
// shaped like the wide-model benchmark (32 nodes, a 44 042-parameter MLP,
// one tiny train step, evaluation after the last round only): a node owns
// its parameters and its gradients — it publishes the first in place and
// mixes into the second — and nothing the size of a model is allocated
// once the rounds have started.
func TestRunHoldsTwoModelVectorsPerNode(t *testing.T) {
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
	if budget := 2.3 * nodes * vecBytes; short > budget {
		t.Errorf("an 8-round run allocated %.2f model vectors per node (%.0f bytes), budget 2.3", short/(nodes*vecBytes), short)
	}
	if long-short >= vecBytes {
		t.Errorf("8 more rounds allocated %.0f more bytes: a model vector (%.0f bytes) or more inside the round loop", long-short, vecBytes)
	}
	t.Logf("%.3f model vectors per node; 8 more rounds add %.0f bytes", short/(nodes*vecBytes), long-short)
}
