package analyze_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/harvest/difftest"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/obstest"
	"repro/internal/rng"
	"repro/internal/sim"
)

// scenarioConfig binds one difftest scenario cell to a small training
// problem, so the auditor sees the same trace × policy × liveness grid the
// differential suite pins. With rewound set the fleet has a past: four
// rounds of threshold training (TryTrain, then EndRound), then Reset — the
// grid-search reuse path, which Reset promises replays a fresh fleet bit
// for bit.
func scenarioConfig(t *testing.T, s difftest.Scenario, rewound bool) sim.Config {
	t.Helper()
	g, err := graph.Regular(s.Nodes, 4, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dataset.SyntheticConfig{Classes: 4, Dim: 6, Train: 4 * s.Nodes, Test: 80, Noise: 0.8, Seed: s.Seed}
	train, test, err := dataset.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	part, err := dataset.ShardPartition(train, s.Nodes, 2, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if rewound {
		f := inst.Fleet
		for r := 0; r < 4; r++ {
			for i := 0; i < f.Nodes(); i++ {
				if f.SoC(i) > 0.3 {
					f.TryTrain(i)
				}
			}
			f.EndRound(r)
		}
		if err := inst.Fleet.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	cfg := sim.Config{
		Graph:   g,
		Weights: graph.Metropolis(g),
		Algo:    core.Algorithm{Label: "harvest", Schedule: s.Schedule(), Policy: inst.Policy},
		Rounds:  10,
		ModelFactory: func(node int, r *rng.RNG) *nn.Network {
			return nn.LogisticRegression(6, 4, r)
		},
		LR:         0.05,
		BatchSize:  8,
		LocalSteps: 1,
		Partition:  part,
		Test:       test,
		EvalEvery:  5,
		Seed:       s.Seed,
		Devices:    s.Devices(),
		Workload:   s.Workload(),
		Harvest:    inst.Fleet,
	}
	// Cutoff cells drive the dead-topology path, matching the liveness
	// coverage of the differential table.
	cfg.DropDeadNodes = s.Options.CutoffSoC > 0
	if s.Horizon > 0 {
		cfg.Forecast = inst.Forecaster
		cfg.ForecastHorizon = s.Horizon
	}
	return cfg
}

// The auditor, attached live as a sink, must pass every scenario of the
// differential table, on a fresh fleet ("pointer") and on one that first
// ran four threshold rounds and was Reset ("soa"; the subtest names predate
// the merge of the two fleet engines): conservation within EnergyTol each
// round, brown-out/revival alternation, counters, phase accounting. This is the end-to-end guarantee that the invariants
// the auditor enforces are invariants the simulator actually maintains.
func TestAuditorCleanOnLiveScenarioStreams(t *testing.T) {
	engines := []string{"pointer", "soa"}
	for k, s := range difftest.Scenarios() {
		if s.Nodes > 112 {
			continue // /large cells: same physics, only slower here
		}
		if testing.Short() && k%5 != 0 {
			continue
		}
		for _, kind := range engines {
			s, kind := s, kind
			t.Run(s.Name+"/"+kind, func(t *testing.T) {
				t.Parallel()
				cfg := scenarioConfig(t, s, kind == "soa")
				auditor := analyze.NewAuditor()
				mem := obstest.NewMemory()
				cfg.Probe = obs.NewProbe(obs.Multi(auditor, mem))
				if _, err := sim.Run(cfg); err != nil {
					t.Fatal(err)
				}
				auditor.Close()
				if !auditor.Ok() {
					t.Fatalf("audit failed:\n%s", auditor.Summary())
				}
				if got := countKind(mem.Events(), obs.KindRoundEnd); got != cfg.Rounds {
					t.Fatalf("round_end events = %d, want %d", got, cfg.Rounds)
				}
				// Every round_end must carry the energy ledger the
				// conservation check runs on.
				for _, ev := range mem.Events() {
					if ev.Kind != obs.KindRoundEnd {
						continue
					}
					if ev.ChargeWh == 0 && ev.HarvestWh == 0 && ev.ConsumedWh == 0 {
						t.Fatalf("round %d round_end has no energy fields: %+v", ev.Round, ev)
					}
				}
				// The reconstruction must agree with the live stream.
				rep := analyze.FromEvents(mem.Events())
				if rep.Rounds != cfg.Rounds || !rep.HasEnergy {
					t.Fatalf("report: rounds %d, energy %v", rep.Rounds, rep.HasEnergy)
				}
			})
		}
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
