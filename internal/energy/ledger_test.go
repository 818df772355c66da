package energy_test

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/harvest/difftest"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
)

// The Eq. 3 accountant is the engine's own ledger: sim.Run adds a node's
// TrainRoundWh once per round it trains and TrainRoundWh·CommShareOfTraining
// once per round its radio is on, and sums the nodes in order. These tests
// pin that ledger against an independent recomputation from the energy model.

// ledgerConfig is an 8-node run on the paper's device mix under the CIFAR-10
// workload: logistic regression on a 6-class synthetic task, 2-shard non-IID.
func ledgerConfig(t *testing.T, seed uint64, algo core.Algorithm) sim.Config {
	t.Helper()
	const nodes = 8
	g, err := graph.Regular(nodes, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := dataset.Generate(dataset.SyntheticConfig{Classes: 6, Dim: 8, Train: 60 * nodes, Test: 120, Noise: 0.8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	part, err := dataset.ShardPartition(train, nodes, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Graph:   g,
		Weights: graph.Metropolis(g),
		Algo:    algo,
		Rounds:  12,
		ModelFactory: func(node int, r *rng.RNG) *nn.Network {
			return nn.LogisticRegression(8, 6, r)
		},
		LR:         0.05,
		BatchSize:  16,
		LocalSteps: 3,
		Partition:  part,
		Test:       test,
		EvalEvery:  4,
		Seed:       seed,
		Devices:    energy.AssignDevices(nodes, energy.Devices()),
		Workload:   energy.CIFAR10Workload(),
	}
}

// outage keeps node 0 dead in rounds 3–5 and every other node live.
func outage(round int) []bool {
	live := make([]bool, 8)
	for i := range live {
		live[i] = i != 0 || round < 3 || round >= 6
	}
	return live
}

// wantLedger recomputes the Eq. 3 totals from the run's own counts: node i
// adds its device's TrainRoundWh TrainedRounds[i] times and its comm share
// once per round up(r, i) holds, and the totals sum the nodes in order.
func wantLedger(cfg sim.Config, res *sim.Result, up func(r, i int) bool) (trainWh, commWh float64) {
	for i, d := range cfg.Devices {
		nodeTrain, nodeComm, wh := 0.0, 0.0, d.TrainRoundWh(cfg.Workload)
		for k := 0; k < res.TrainedRounds[i]; k++ {
			nodeTrain += wh
		}
		for r := 0; r < cfg.Rounds; r++ {
			if up(r, i) {
				nodeComm += wh * energy.CommShareOfTraining
			}
		}
		trainWh += nodeTrain
		commWh += nodeComm
	}
	return trainWh, commWh
}

// ledgerRun runs a Greedy fleet through the scripted outage, routing
// through the dead node or dropping it, and returns the run with the
// recomputed totals.
func ledgerRun(t *testing.T, drop bool) (res *sim.Result, trainWh, commWh float64) {
	t.Helper()
	cfg := ledgerConfig(t, 57, core.Greedy([]int{3, 12, 0, 7, 12, 1, 5, 12}))
	cfg.Liveness = outage
	cfg.DropDeadNodes = drop
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainWh, commWh = wantLedger(cfg, res, func(r, i int) bool { return !drop || outage(r)[i] })
	return res, trainWh, commWh
}

// TestAccountantTotals checks the training ledger: Result.TotalTrainWh and
// the last record's CumTrainWh equal the recomputation bit for bit, routing
// through a scripted outage and dropping the dead node.
func TestAccountantTotals(t *testing.T) {
	for _, drop := range []bool{false, true} {
		res, want, _ := ledgerRun(t, drop)
		last := res.History[len(res.History)-1]
		if res.TotalTrainWh != want || last.CumTrainWh != want {
			t.Errorf("drop=%v: training energy total %v, last record %v; want %v", drop, res.TotalTrainWh, last.CumTrainWh, want)
		}
	}
}

// TestAccountantCommunication checks the communication ledger the same way:
// one comm share per round a node is not down, so a dropped node's
// radio-off rounds cost nothing.
func TestAccountantCommunication(t *testing.T) {
	comm := map[bool]float64{}
	for _, drop := range []bool{false, true} {
		res, _, want := ledgerRun(t, drop)
		last := res.History[len(res.History)-1]
		if res.TotalCommWh != want || last.CumCommWh != want {
			t.Errorf("drop=%v: comm energy total %v, last record %v; want %v", drop, res.TotalCommWh, last.CumCommWh, want)
		}
		comm[drop] = want
	}
	if comm[true] >= comm[false] {
		t.Fatalf("the dropped node's radio-off rounds cost comm energy: %v Wh dropping, %v Wh routing", comm[true], comm[false])
	}
}

// TestAccountantConcurrent checks the ledger the train workers write
// concurrently: at GOMAXPROCS 8 every round's cumulative ledger equals the
// serial run's bit for bit, and the totals equal the recomputation.
func TestAccountantConcurrent(t *testing.T) {
	run := func(procs int) (sim.Config, *sim.Result) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cfg := ledgerConfig(t, 59, core.Greedy([]int{2, 4, 6, 8, 10, 12, 1, 0}))
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cfg, res
	}
	_, serial := run(1)
	cfg, wide := run(8)
	for r := range serial.History {
		s, w := serial.History[r], wide.History[r]
		if s.CumTrainWh != w.CumTrainWh || s.CumCommWh != w.CumCommWh {
			t.Fatalf("round %d: ledger at GOMAXPROCS 8 (%v, %v) differs from the serial run's (%v, %v)", r, w.CumTrainWh, w.CumCommWh, s.CumTrainWh, s.CumCommWh)
		}
	}
	trainWh, commWh := wantLedger(cfg, wide, func(int, int) bool { return true })
	if wide.TotalTrainWh != trainWh || wide.TotalCommWh != commWh {
		t.Fatalf("totals (%v, %v), want (%v, %v)", wide.TotalTrainWh, wide.TotalCommWh, trainWh, commWh)
	}
}

// TestAccountantHarvestLedger runs the Eq. 3 ledger beside a harvest
// fleet's ledger. A round the battery refuses is not trained, so it costs no
// training energy; and each round the fleet's ledger closes the
// energy-causality identity charge(t-1) + ArrivedWh - Δconsumed - Δwasted =
// ChargeWh, with its last record equal to the run's harvest totals.
func TestAccountantHarvestLedger(t *testing.T) {
	s := difftest.Scenario{
		Name:    "ledger-harvest",
		Nodes:   8,
		Seed:    60,
		Trace:   difftest.TraceDiurnal,
		Policy:  difftest.PolicyProportional,
		Options: harvest.Options{CapacityRounds: 8, InitialSoC: 0.5},
	}
	inst, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := ledgerConfig(t, s.Seed, core.Algorithm{Label: "harvest", Schedule: s.Schedule(), Policy: inst.Policy})
	cfg.Devices, cfg.Workload, cfg.Harvest = s.Devices(), s.Workload(), inst.Fleet
	cfg.Rounds = 24
	charge := inst.Fleet.TotalChargeWh()
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	trainWh, commWh := wantLedger(cfg, res, func(int, int) bool { return true })
	if res.TotalTrainWh != trainWh || res.TotalCommWh != commWh {
		t.Fatalf("Eq. 3 totals (%v, %v), want (%v, %v)", res.TotalTrainWh, res.TotalCommWh, trainWh, commWh)
	}
	trained := 0
	for _, n := range res.TrainedRounds {
		trained += n
	}
	if trained == 0 || trained == cfg.Rounds*s.Nodes {
		t.Fatalf("%d of %d node-rounds trained: the battery gated nothing", trained, cfg.Rounds*s.Nodes)
	}

	var consumed, wasted float64
	for r, m := range res.History {
		want := charge + m.ArrivedWh - (m.CumConsumedWh - consumed) - (m.CumWastedWh - wasted)
		if math.Abs(m.ChargeWh-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("round %d: fleet charge %v, the ledger gives %v", r, m.ChargeWh, want)
		}
		charge, consumed, wasted = m.ChargeWh, m.CumConsumedWh, m.CumWastedWh
	}
	last := res.History[len(res.History)-1]
	if res.TotalHarvestWh <= 0 || last.CumHarvestWh != res.TotalHarvestWh || last.CumWastedWh != res.TotalWastedWh {
		t.Fatalf("harvest ledger (%v stored, %v wasted), run totals (%v, %v)", last.CumHarvestWh, last.CumWastedWh, res.TotalHarvestWh, res.TotalWastedWh)
	}
}

// TestBudgetConcurrentConsume checks that concurrent train workers spend a
// Greedy budget exactly: on one policy value, run twice at GOMAXPROCS 8,
// each node trains min(τ, rounds) rounds and is billed that many.
func TestBudgetConcurrentConsume(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	tau := []int{2, 4, 6, 8, 10, 12, 1, 0}
	algo := core.Greedy(tau)
	for pass := 0; pass < 2; pass++ {
		cfg := ledgerConfig(t, 61, algo)
		cfg.Rounds = 10
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range res.TrainedRounds {
			if want := min(tau[i], cfg.Rounds); n != want {
				t.Fatalf("pass %d: node %d trained %d rounds, want %d", pass, i, n, want)
			}
		}
		if want, _ := wantLedger(cfg, res, func(int, int) bool { return true }); res.TotalTrainWh != want {
			t.Fatalf("pass %d: training energy %v, want %v", pass, res.TotalTrainWh, want)
		}
	}
}
