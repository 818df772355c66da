package async

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/obstest"
	"repro/internal/rng"
)

// harvestConfig is testConfig plus a trace sized so batteries genuinely
// bind: per-round arrivals comparable to a training step's cost.
func harvestConfig(t *testing.T, seed uint64, trace harvest.Trace) Config {
	t.Helper()
	cfg := testConfig(t, seed)
	cfg.Trace = trace
	cfg.FleetOptions = harvest.Options{
		CapacityRounds: 8, InitialSoC: 0.4, CutoffSoC: 0.1,
	}
	return cfg
}

// meanStepWh returns the fleet-average training-step energy — the scale
// harvest traces are sized against.
func meanStepWh(cfg Config) float64 {
	total := 0.0
	for _, d := range cfg.Devices {
		total += d.TrainRoundWh(cfg.Workload)
	}
	return total / float64(len(cfg.Devices))
}

func scarceDiurnal(t *testing.T, cfg Config) *harvest.Diurnal {
	t.Helper()
	d, err := harvest.NewDiurnal(1.2*meanStepWh(cfg), 12, harvest.LongitudePhase(cfg.Graph.N))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func scarceMarkov(t *testing.T, cfg Config, seed uint64) *harvest.MarkovOnOff {
	t.Helper()
	m, err := harvest.NewMarkovOnOff(cfg.Graph.N, 1.5*meanStepWh(cfg), 0.3, 0.3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Every battery/forecast policy of the synchronous engine must run in the
// event-driven engine — the marker-interface rejection is gone.
func TestAsyncHarvestPoliciesRun(t *testing.T) {
	base := testConfig(t, 21)
	policies := map[string]func(c *Config){
		"threshold": func(c *Config) {
			p, err := harvest.NewSoCThreshold(0.2)
			if err != nil {
				t.Fatal(err)
			}
			c.Algo.Policy = p
		},
		"hysteresis": func(c *Config) {
			p, err := harvest.NewSoCHysteresis(c.Graph.N, 0.15, 0.4)
			if err != nil {
				t.Fatal(err)
			}
			c.Algo.Policy = p
		},
		"proportional": func(c *Config) {
			p, err := harvest.NewSoCProportional(1)
			if err != nil {
				t.Fatal(err)
			}
			c.Algo.Policy = p
		},
		"mpc": func(c *Config) {
			p, err := harvest.NewHorizonPlan(0.05)
			if err != nil {
				t.Fatal(err)
			}
			c.Algo.Policy = p
			o, err := harvest.NewOracle(c.Trace)
			if err != nil {
				t.Fatal(err)
			}
			c.Forecast = o
			c.ForecastHorizon = 6
		},
	}
	for name, attach := range policies {
		cfg := harvestConfig(t, 21, scarceDiurnal(t, base))
		// Ample but not unlimited energy so policies both admit and refuse.
		attach(&cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		trained := 0
		for _, tr := range res.TrainedSteps {
			trained += tr
		}
		if trained == 0 {
			t.Fatalf("%s: no node ever trained", name)
		}
		if res.ConsumedWh <= 0 || res.HarvestedWh <= 0 {
			t.Fatalf("%s: fleet ledgers empty (consumed %v, harvested %v)", name, res.ConsumedWh, res.HarvestedWh)
		}
	}
}

// Under scarce energy the engine must produce genuine brown-out/wake
// cycles: interrupts counted, outage share in (0, 1), and training still
// making progress between outages.
func TestAsyncHarvestBrownoutWakeCycle(t *testing.T) {
	cfg := harvestConfig(t, 22, nil)
	cfg.Trace = scarceDiurnal(t, cfg)
	cfg.FleetOptions = harvest.Options{CapacityRounds: 4, InitialSoC: 0.15, CutoffSoC: 0.1, IdleWh: 0.3 * meanStepWh(cfg)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Brownouts == 0 {
		t.Fatal("scarce diurnal run produced no brown-outs")
	}
	if res.BrownoutShare <= 0 || res.BrownoutShare >= 1 {
		t.Fatalf("brown-out share %v outside (0, 1)", res.BrownoutShare)
	}
	steps := 0
	for _, s := range res.StepsPerNode {
		steps += s
	}
	if steps == 0 {
		t.Fatal("fleet never stepped")
	}
	// TotalTrainWh counts completed steps only, and the fleet ledger must
	// cover training plus overheads.
	want := 0.0
	for i, tr := range res.TrainedSteps {
		want += float64(tr) * cfg.Devices[i].TrainRoundWh(cfg.Workload)
	}
	if math.Abs(res.TotalTrainWh-want) > 1e-9 {
		t.Fatalf("TotalTrainWh %v, completed steps account for %v", res.TotalTrainWh, want)
	}
	if res.ConsumedWh < res.TotalTrainWh {
		t.Fatalf("fleet consumed %v < training energy %v", res.ConsumedWh, res.TotalTrainWh)
	}
}

// The event-driven engine on a constant trace with ample energy (no
// brown-outs, costs always affordable) must reproduce the budget-contract
// path exactly: same step counts, same gossip count, same accuracy — the
// battery machinery is energy-transparent when energy never binds.
func TestAsyncHarvestParityWithBudgetPath(t *testing.T) {
	plain, err := Run(testConfig(t, 23))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 23)
	cfg.Trace = harvest.Constant{Wh: 1} // far above any per-round draw
	cfg.FleetOptions = harvest.Options{CapacityRounds: 1000, InitialSoC: 1, CutoffSoC: 0}
	rich, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rich.Brownouts != 0 {
		t.Fatalf("ample-energy run browned out %d times", rich.Brownouts)
	}
	if plain.FinalMeanAcc != rich.FinalMeanAcc {
		t.Fatalf("accuracy diverged: plain %v, harvest %v", plain.FinalMeanAcc, rich.FinalMeanAcc)
	}
	if plain.GossipsSent != rich.GossipsSent {
		t.Fatalf("gossip diverged: plain %d, harvest %d", plain.GossipsSent, rich.GossipsSent)
	}
	for i := range plain.StepsPerNode {
		if plain.StepsPerNode[i] != rich.StepsPerNode[i] || plain.TrainedSteps[i] != rich.TrainedSteps[i] {
			t.Fatalf("node %d steps diverged: plain %d/%d, harvest %d/%d", i,
				plain.StepsPerNode[i], plain.TrainedSteps[i], rich.StepsPerNode[i], rich.TrainedSteps[i])
		}
	}
}

// Harvest-coupled async runs stay bit-reproducible, on both trace
// families (the Markov chain is sampled once per node-round through the
// step integrator, on the same per-node streams as the round engines).
func TestAsyncHarvestDeterministic(t *testing.T) {
	for _, family := range []string{"diurnal", "markov"} {
		mk := func() Config {
			cfg := harvestConfig(t, 24, nil)
			if family == "diurnal" {
				cfg.Trace = scarceDiurnal(t, cfg)
			} else {
				cfg.Trace = scarceMarkov(t, cfg, 24)
			}
			return cfg
		}
		r1, err := Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		if r1.FinalMeanAcc != r2.FinalMeanAcc || r1.Brownouts != r2.Brownouts ||
			r1.GossipsSent != r2.GossipsSent || r1.BrownoutShare != r2.BrownoutShare ||
			r1.ConsumedWh != r2.ConsumedWh || r1.HarvestedWh != r2.HarvestedWh {
			t.Fatalf("%s: runs differ: %+v vs %+v", family, r1, r2)
		}
		for i := range r1.StepsPerNode {
			if r1.StepsPerNode[i] != r2.StepsPerNode[i] {
				t.Fatalf("%s: node %d step counts differ", family, i)
			}
		}
	}
}

// The async telemetry stream — VTime-stamped brownouts, revivals, and
// eval-tick energy ledgers — must pass every auditor invariant on both
// trace families.
func TestAsyncHarvestAuditorClean(t *testing.T) {
	for _, family := range []string{"diurnal", "markov"} {
		cfg := harvestConfig(t, 25, nil)
		if family == "diurnal" {
			cfg.Trace = scarceDiurnal(t, cfg)
		} else {
			cfg.Trace = scarceMarkov(t, cfg, 25)
		}
		cfg.FleetOptions = harvest.Options{CapacityRounds: 4, InitialSoC: 0.15, CutoffSoC: 0.1, IdleWh: 0.3 * meanStepWh(cfg)}
		auditor := analyze.NewAuditor()
		mem := obstest.NewMemory()
		cfg.Probe = obs.NewProbe(obs.Multi(mem, auditor))
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		auditor.Close()
		if !auditor.Ok() {
			t.Fatalf("%s: auditor found violations:\n%s", family, auditor.Summary())
		}
		if res.Brownouts > 0 && countKind(mem.Events(), obs.KindBrownout) == 0 {
			t.Fatalf("%s: %d brown-outs but no brownout events", family, res.Brownouts)
		}
		if countKind(mem.Events(), obs.KindRoundEnd) == 0 {
			t.Fatalf("%s: no ledger checkpoints in the stream", family)
		}
		// Ledger checkpoints and brownouts carry the virtual clock.
		for _, ev := range mem.Events() {
			if ev.Kind == obs.KindRoundEnd && ev.VTime <= 0 {
				t.Fatalf("%s: ledger checkpoint without virtual time: %+v", family, ev)
			}
		}
	}
}

// A revived node reports its outage length in trace rounds, and the
// alternation brownout → revival shows up in stream order.
func TestAsyncHarvestRevivalStaleness(t *testing.T) {
	cfg := harvestConfig(t, 26, nil)
	cfg.Trace = scarceDiurnal(t, cfg)
	cfg.FleetOptions = harvest.Options{CapacityRounds: 4, InitialSoC: 0.15, CutoffSoC: 0.1, IdleWh: 0.3 * meanStepWh(cfg)}
	mem := obstest.NewMemory()
	cfg.Probe = obs.NewProbe(mem)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	revivals := 0
	downAt := map[int]float64{}
	for _, ev := range mem.Events() {
		switch ev.Kind {
		case obs.KindBrownout:
			downAt[ev.Node] = ev.VTime
		case obs.KindRevival:
			revivals++
			if _, ok := downAt[ev.Node]; !ok {
				t.Fatalf("revival of node %d without a prior brownout", ev.Node)
			}
			if ev.VTime < downAt[ev.Node] {
				t.Fatalf("node %d revived at %v before its brownout at %v", ev.Node, ev.VTime, downAt[ev.Node])
			}
			if ev.Staleness < 0 {
				t.Fatalf("negative staleness %d", ev.Staleness)
			}
			delete(downAt, ev.Node)
		}
	}
	if revivals == 0 {
		t.Fatal("no revival ever happened under a diurnal trace")
	}
}

// A stateful trace carried into a second run starts that run from where the
// first left its chains, unless the fleet rewinds it: two runs on one config
// and one Markov object must be the same run.
func TestAsyncTraceReuseReplays(t *testing.T) {
	cfg := harvestConfig(t, 9, nil)
	cfg.Trace = scarceMarkov(t, cfg, 9)
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.HarvestedWh != again.HarvestedWh || first.FinalMeanAcc != again.FinalMeanAcc || first.Brownouts != again.Brownouts {
		t.Fatalf("second run on the same trace differs: harvested %v vs %v Wh, accuracy %v vs %v, brown-outs %d vs %d",
			first.HarvestedWh, again.HarvestedWh, first.FinalMeanAcc, again.FinalMeanAcc, first.Brownouts, again.Brownouts)
	}
}

// FuzzAsyncSchedule draws a topology of 2–8 nodes, a trace (constant,
// diurnal or Markov), a participation policy, a cutoff and Γ, and runs the
// event engine at GOMAXPROCS 1 and 8: the two results must be deeply
// equal but for the manifest's GOMAXPROCS stamp, and each probe stream must
// pass every analyze.Auditor invariant.
// Sleeping nodes, brown-outs and uneven pacing drive the mailbox through
// queue depths that no golden reaches.
func FuzzAsyncSchedule(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(10), uint8(0x11), uint64(1))   // two nodes, constant trace, SkipTrain
	f.Add(uint8(3), uint8(1), uint8(1), uint8(20), uint8(0x32), uint64(2))   // five-node complete graph, diurnal, threshold
	f.Add(uint8(11), uint8(2), uint8(2), uint8(30), uint8(0x03), uint64(3))  // six-node ring, Markov, hysteresis
	f.Add(uint8(20), uint8(1), uint8(3), uint8(80), uint8(0x23), uint64(4))  // eight-node 2-regular, diurnal, proportional, idle draw
	f.Add(uint8(26), uint8(2), uint8(4), uint8(15), uint8(0x10), uint64(5))  // seven-node complete graph, Markov, horizon plan
	f.Add(uint8(41), uint8(0), uint8(5), uint8(101), uint8(0x21), uint64(6)) // eight-node 3-regular, constant, Greedy
	f.Add(uint8(36), uint8(1), uint8(6), uint8(5), uint8(0x13), uint64(7))   // three-node 2-regular, diurnal, SkipTrain-constrained
	// Eight-node 2-regular graph, diurnal trace, Γ = (4,1), cutoff 0.06: a
	// sleeping node's scan found the training cost affordable while
	// TryTrain refused it by an ulp (two roundings of one test), and its
	// wake was nudged to the trace round boundary 12·R, which equalled the
	// current time because t/R rounded below 12. The run never advanced
	// its clock.
	f.Add(uint8(20), uint8(43), uint8(0), uint8(6), uint8(0x43), uint64(165))
	// Two nodes, diurnal trace, hysteresis, cutoff 0.45 with idle draw: a
	// node that cannot pay its gossip wakes at the solved crossing an ulp
	// away, where the realized harvest rounds to nothing; it slept and
	// woke an ulp at a time.
	f.Add(uint8(7), uint8(1), uint8(2), uint8(0x5f), uint8(0x01), uint64(157))
	f.Fuzz(func(t *testing.T, nodes, trace, policy, cutoff, gamma uint8, seed uint64) {
		run := func(procs int) *Result {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			cfg := fuzzScheduleConfig(t, nodes, trace, policy, cutoff, gamma, seed)
			auditor := analyze.NewAuditor()
			cfg.Probe = obs.NewProbe(auditor)
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("procs=%d: %v", procs, err)
			}
			auditor.Close()
			if !auditor.Ok() {
				t.Fatalf("procs=%d: auditor found violations:\n%s", procs, auditor.Summary())
			}
			res.Manifest.GOMAXPROCS = 0 // provenance, outside the config hash
			return res
		}
		if one, eight := run(1), run(8); !reflect.DeepEqual(one, eight) {
			t.Fatalf("GOMAXPROCS 1 and 8 differ:\n%+v\n%+v", one, eight)
		}
	})
}

// fuzzScheduleConfig builds the run FuzzAsyncSchedule draws. Every input
// maps onto a valid configuration, so an error from Run is a finding.
func fuzzScheduleConfig(t *testing.T, nodes, trace, policy, cutoff, gamma uint8, seed uint64) Config {
	t.Helper()
	n := 2 + int(nodes%7)
	var g *graph.Graph
	var err error
	switch kind, d := nodes/7%3, 2+int(nodes/21)%max(1, n-2); {
	case n == 2 || kind == 0:
		g, err = graph.Complete(n)
	case kind == 1:
		g, err = graph.Ring(n)
	default:
		if n*d%2 == 1 {
			d--
		}
		g, err = graph.Regular(n, d, seed)
	}
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := dataset.Generate(dataset.SyntheticConfig{Classes: 4, Dim: 6, Train: 40 * n, Test: 60, Noise: 1.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	part, err := dataset.ShardPartition(train, n, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	gm := core.Gamma{GammaTrain: 1 + int(gamma&3), GammaSync: 1 + int(gamma>>4&3)}
	cfg := Config{
		Graph: g, Algo: core.SkipTrain(gm), Horizon: 120,
		ModelFactory: func(node int, r *rng.RNG) *nn.Network { return nn.LogisticRegression(6, 4, r) },
		LR:           0.1, BatchSize: 8, LocalSteps: 1,
		Partition: part, Test: test,
		Devices: energy.AssignDevices(n, energy.Devices()), Workload: energy.CIFAR10Workload(),
		EvalEverySeconds: 20, EvalSubsample: 60, Seed: seed,
	}
	step := meanStepWh(cfg)
	cfg.FleetOptions = harvest.Options{CapacityRounds: 4 + float64(cutoff>>6), InitialSoC: 0.4, CutoffSoC: float64(cutoff%50) / 100}
	if cutoff&0x40 != 0 {
		cfg.FleetOptions.IdleWh = 0.3 * step
	}
	switch trace % 3 {
	case 0:
		cfg.Trace = harvest.Constant{Wh: step * float64(1+cutoff%4) / 2}
	case 1:
		cfg.Trace, err = harvest.NewDiurnal(1.2*step, 12, harvest.LongitudePhase(n))
	default:
		cfg.Trace, err = harvest.NewMarkovOnOff(n, 1.5*step, 0.3, 0.3, seed)
	}
	if err != nil {
		t.Fatal(err)
	}
	var p core.Policy
	tau := make([]int, n)
	for i := range tau {
		tau[i] = 3 + i%4
	}
	switch policy % 7 {
	case 1:
		p, err = harvest.NewSoCThreshold(0.2)
	case 2:
		p, err = harvest.NewSoCHysteresis(n, 0.15, 0.4)
	case 3:
		p, err = harvest.NewSoCProportional(1)
	case 4:
		p, err = harvest.NewHorizonPlan(0.05)
		if err == nil {
			cfg.Forecast, err = harvest.NewOracle(cfg.Trace)
			cfg.ForecastHorizon = 6
		}
	case 5:
		cfg.Algo = core.Greedy(tau)
	case 6:
		cfg.Algo = core.SkipTrainConstrained(gm, 20, tau)
	}
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		cfg.Algo.Policy = p
	}
	return cfg
}

// TestAsyncRefusedTrainingStepGossips: two nodes in the dark whose
// batteries hold half a training step above the cutoff. The engine's own
// TryTrain refuses every training step of the energy-oblivious D-PSGD, and
// each refused slot becomes a gossip step the battery can pay — the rule a
// charge-aware policy's refusal and the sync engine follow — instead of a
// sleep that waits for charge that never arrives.
func TestAsyncRefusedTrainingStepGossips(t *testing.T) {
	g, err := graph.Complete(2)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := dataset.Generate(dataset.SyntheticConfig{Classes: 4, Dim: 6, Train: 80, Test: 40, Noise: 1.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	part, err := dataset.ShardPartition(train, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Graph: g, Algo: core.DPSGD(), Horizon: 30,
		ModelFactory: func(_ int, r *rng.RNG) *nn.Network { return nn.LogisticRegression(6, 4, r) },
		LR:           0.1, BatchSize: 8, LocalSteps: 1,
		Partition: part, Test: test,
		Devices: energy.AssignDevices(2, energy.Devices()), Workload: energy.CIFAR10Workload(),
		Trace:        harvest.Constant{Wh: 0},
		FleetOptions: harvest.Options{CapacityRounds: 4, InitialSoC: 0.125},
		Seed:         3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, steps := range res.StepsPerNode {
		if steps == 0 || res.TrainedSteps[i] != 0 {
			t.Fatalf("node %d: %d steps, %d trained; want gossip steps only", i, steps, res.TrainedSteps[i])
		}
	}
	if res.GossipsSent == 0 || res.ConsumedWh == 0 || res.Brownouts != 0 {
		t.Fatalf("%d gossips, %v Wh consumed, %d brown-outs; want gossips paid from the battery", res.GossipsSent, res.ConsumedWh, res.Brownouts)
	}
}

// TestAsyncBrownedOutNodeWakesAtGossipCost: four D-PSGD nodes, every slot
// a training slot, start in the dark with idle draw, so each browns out —
// mid-training or during a refused step's gossip — before a training slot.
// Each wakes at the solved crossing of its gossip cost, strictly before it
// could afford training, and its first step after the revival gossips.
// A replica fleet replays the battery calls the engine makes for the node
// until the brown-out and solves the crossings from the same state.
func TestAsyncBrownedOutNodeWakesAtGossipCost(t *testing.T) {
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := dataset.Generate(dataset.SyntheticConfig{Classes: 4, Dim: 6, Train: 160, Test: 40, Noise: 1.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	part, err := dataset.ShardPartition(train, 4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Graph: g, Algo: core.DPSGD(), Horizon: 160, RoundSeconds: 4,
		ModelFactory: func(_ int, r *rng.RNG) *nn.Network { return nn.LogisticRegression(6, 4, r) },
		LR:           0.1, BatchSize: 8, LocalSteps: 1,
		Partition: part, Test: test,
		Devices: energy.AssignDevices(4, energy.Devices()), Workload: energy.CIFAR10Workload(),
		Seed: 5,
	}
	step := meanStepWh(cfg)
	cfg.FleetOptions = harvest.Options{CapacityRounds: 4, InitialSoC: 0.55, CutoffSoC: 0.25, IdleWh: 0.5 * step}
	rows := make([][]float64, 40) // dark for three rounds, then a harvest above the idle draw
	for k := range rows {
		rows[k] = make([]float64, 4)
		for i := range rows[k] {
			rows[k][i] = step * float64(min(k/3, 1))
		}
	}
	if cfg.Trace, err = harvest.NewReplay(rows); err != nil {
		t.Fatal(err)
	}
	inFlight := 0
	for i := range cfg.Devices {
		f, err := harvest.NewVFleet(cfg.Devices, cfg.Workload, cfg.Trace, cfg.FleetOptions, cfg.RoundSeconds)
		if err != nil {
			t.Fatal(err)
		}
		var stagger rng.RNG // Run starts node i at the first draw of its gossip stream
		rng.DeriveTo(&stagger, cfg.Seed, uint64(i), 0x905517)
		dur := cfg.Devices[i].TrainRoundSeconds(cfg.Workload)
		now, done, trained, down, training := dur*stagger.Float64(), 0, 0, 0.0, false
		for down == 0 {
			f.AdvanceNode(i, now)
			end, browned := 0.0, false
			if training = f.TryTrain(i); training {
				end, browned = f.TrainStep(i, now+dur)
			} else if f.TrySync(i) {
				end, browned = f.AdvanceDetect(i, now+dur/syncSpeedup)
			} else {
				t.Fatalf("node %d: gossip refused at %v s; it sleeps without browning out", i, now)
			}
			switch {
			case browned:
				down = end
			case training:
				trained++
				fallthrough
			default:
				now, done = end, done+1
			}
		}
		if training {
			inFlight++
		}
		wake, _ := f.ScanAfford(i, f.CommCostWh(i), cfg.Horizon)
		trainWake, _ := f.ScanAfford(i, f.TrainCostWh(i), cfg.Horizon)
		if !(wake < trainWake) {
			t.Fatalf("node %d: gossip crossing %v s, training crossing %v s; want the gossip strictly first", i, wake, trainWake)
		}

		// Cap the node one step past its brown-out: that step is the first
		// it takes after the revival.
		cfg.StepsPerNode = done + 1
		mem := obstest.NewMemory()
		cfg.Probe = obs.NewProbe(mem)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var brownouts, revivals []float64
		for _, ev := range mem.Events() {
			switch {
			case ev.Node != i:
			case ev.Kind == obs.KindBrownout:
				brownouts = append(brownouts, ev.VTime)
			case ev.Kind == obs.KindRevival:
				revivals = append(revivals, ev.VTime)
			}
		}
		if len(brownouts) == 0 || brownouts[0] != down {
			t.Fatalf("node %d: brown-outs at %v s, replica browned out at %v s", i, brownouts, down)
		}
		if len(revivals) == 0 || revivals[0] != wake {
			t.Errorf("node %d: revived at %v s, want the gossip crossing %v s (training crossing %v s)", i, revivals, wake, trainWake)
		}
		if res.StepsPerNode[i] != done+1 || res.TrainedSteps[i] != trained {
			t.Errorf("node %d: %d steps, %d trained; want %d and %d, the last step a gossip after the revival", i, res.StepsPerNode[i], res.TrainedSteps[i], done+1, trained)
		}
	}
	if inFlight == 0 || inFlight == len(cfg.Devices) {
		t.Fatalf("%d of %d nodes browned out mid-training; want both brown-out paths", inFlight, len(cfg.Devices))
	}
}

// Evaluations read a run and do not change it: a harvest run with brown-
// outs, sleeping nodes and idle draw takes the same steps, spends and
// wastes the same energy to the bit and ends with the same models whether
// it is evaluated at the horizon only, every 50 s or every 5 s. An
// evaluation tick once settled every battery to its instant, which split
// each node's settle interval there and rounded it differently. The final
// models are compared through the averaged model's parameters — at
// GOMAXPROCS 1 the run has one worker network and the averaged model is
// the last vector it scores — and the consensus distance, which reads
// every node's parameters. The horizon's scores, the mean node accuracy
// and the averaged model's, are equal too: every evaluation scores the one
// test subsample drawn at set-up, which a redraw per evaluation did not.
func TestAsyncEvaluationsLeaveRunUnchanged(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	type outcome struct {
		Steps, Trained              []int
		Gossips, Dropped, Brownouts int
		Ledger                      [5]float64 // down share, harvested, consumed, wasted, training Wh
		Consensus, MeanAcc, Global  float64
		Mean                        []uint64 // the averaged model's bits
	}
	run := func(every float64) outcome {
		cfg := harvestConfig(t, 22, nil)
		cfg.Trace = scarceDiurnal(t, cfg)
		cfg.FleetOptions = harvest.Options{CapacityRounds: 4, InitialSoC: 0.15, CutoffSoC: 0.25, IdleWh: 0.2 * meanStepWh(cfg)}
		cfg.Horizon, cfg.EvalEverySeconds = 600, every
		var nets []*nn.Network
		factory := cfg.ModelFactory
		cfg.ModelFactory = func(node int, r *rng.RNG) *nn.Network {
			nets = append(nets, factory(node, r))
			return nets[len(nets)-1]
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 // the horizon's evaluation
		if every > 0 {
			want = int(600 / every)
		}
		if len(res.History) != want || len(nets) != 1 {
			t.Fatalf("every %v s: %d evaluations and %d worker networks, want %d and 1", every, len(res.History), len(nets), want)
		}
		o := outcome{Steps: res.StepsPerNode, Trained: res.TrainedSteps, Gossips: res.GossipsSent, Dropped: res.DroppedGossips, Brownouts: res.Brownouts,
			Ledger:    [5]float64{res.BrownoutShare, res.HarvestedWh, res.ConsumedWh, res.WastedWh, res.TotalTrainWh},
			Consensus: res.History[len(res.History)-1].Consensus, MeanAcc: res.FinalMeanAcc, Global: res.FinalGlobalAcc}
		for _, v := range nets[0].Params() {
			o.Mean = append(o.Mean, math.Float64bits(v))
		}
		return o
	}
	base := run(0)
	if base.Brownouts == 0 {
		t.Fatal("no brown-outs: the run never sleeps a node")
	}
	for _, every := range []float64{50, 5} {
		if got := run(every); !reflect.DeepEqual(got, base) {
			t.Errorf("every %v s: %+v\nwithout evaluations: %+v", every, got, base)
		}
	}
}

// The manifest hashes the battery fleet's shape, as the round engine's
// does: runs that differ only in capacity, cutoff, idle draw or initial
// charge are different experiments with different config hashes. The
// async manifest once hashed none of them, so all five runs below shared
// one hash.
func TestAsyncManifestHashesTheFleet(t *testing.T) {
	base := harvestConfig(t, 31, nil)
	base.Trace = scarceDiurnal(t, base)
	base.Horizon = 30
	step := meanStepWh(base)
	seen := map[string]string{}
	for name, set := range map[string]func(*harvest.Options){
		"base":     func(*harvest.Options) {},
		"capacity": func(o *harvest.Options) { o.CapacityRounds = 6 },
		"cutoff":   func(o *harvest.Options) { o.CutoffSoC = 0.25 },
		"idle":     func(o *harvest.Options) { o.IdleWh = 0.2 * step },
		"initial":  func(o *harvest.Options) { o.InitialSoC = 0.9 },
	} {
		cfg := base
		set(&cfg.FleetOptions)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if other, dup := seen[res.Manifest.ConfigHash]; dup {
			t.Errorf("%s and %s share config hash %s", name, other, res.Manifest.ConfigHash)
		}
		seen[res.Manifest.ConfigHash] = name
	}
}

// A ledger tick's round_end carries what the engine measured: the fleet's
// SoC quantiles from the charges as last settled, and the steps trained
// since the previous tick, which sum to the run's; run_end carries the
// run's wall clock. Ticks once left the quantiles and the trained count at
// zero and run_end without a wall clock, so a report printed zeros for
// them.
func TestAsyncTicksCarryWhatTheyMeasure(t *testing.T) {
	cfg := harvestConfig(t, 25, nil)
	cfg.Trace = scarceDiurnal(t, cfg)
	mem := obstest.NewMemory()
	cfg.Probe = obs.NewProbe(mem)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trained, ticks := 0, 0
	for _, ev := range mem.Events() {
		switch ev.Kind {
		case obs.KindRoundEnd:
			ticks++
			trained += ev.Trained
			if !(ev.SoCP50 > 0 && ev.SoCP50 <= ev.SoCP90 && ev.SoCP90 <= ev.SoCP99 && ev.SoCP99 <= 1) {
				t.Errorf("tick %d: SoC quantiles p50=%g p90=%g p99=%g (mean %g)", ev.Round, ev.SoCP50, ev.SoCP90, ev.SoCP99, ev.MeanSoC)
			}
		case obs.KindRunEnd:
			if ev.WallNs <= 0 || ev.Trained != trained {
				t.Errorf("run_end %+v: want a wall clock and the ticks' %d trained steps", ev, trained)
			}
		}
	}
	want := 0
	for _, n := range res.TrainedSteps {
		want += n
	}
	if ticks < 2 || trained != want {
		t.Errorf("%d ticks carry %d trained steps, the run trained %d", ticks, trained, want)
	}
}
