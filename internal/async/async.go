// Package async implements the asynchronous extension of SkipTrain that
// the paper leaves as future work (Section 5.3: "asynchronous algorithms
// offer a more practical approach by relaxing the need for strict
// synchronization. We leave the exploration and development of an
// asynchronous extension of SkipTrain for future research").
//
// The design follows AD-PSGD (Lian et al., 2018), the asynchronous
// counterpart the paper cites: nodes run free of barriers; when a node
// finishes a local step it pushes its model to one random neighbor and
// averages pairwise with whatever models have arrived meanwhile. SkipTrain
// transfers directly: a node's local step counter decides — via the same
// Γtrain/Γsync pattern and training probabilities — whether the step
// includes local SGD or is gossip-only.
//
// The engine is a deterministic discrete-event simulation in virtual time.
// Each node's step duration comes from its device trace (training a round
// on a Xiaomi Poco X3 takes 6.1 virtual seconds, on a OnePlus Nord 2 only
// 2.3 — Table 2), so heterogeneous pacing emerges naturally: fast devices
// gossip more often, exactly the system-heterogeneity regime asynchronous
// DL targets. Virtual time also keeps every run bit-reproducible.
//
// Attaching a harvest trace (Config.Trace) makes intermittency
// event-driven, the setting of Decentralized Federated Learning With
// Energy Harvesting Devices (Zhang, Cao, Letaief): batteries evolve on
// the continuous clock (harvest.VFleet), charge arrivals wake sleeping
// nodes at exactly solved crossing times, and a brown-out interrupts an
// in-flight training step — the computation is discarded but its partial
// energy stays spent, per Intermittent Learning (Lee et al.). Every
// battery/forecast participation policy of the synchronous engine runs
// unchanged through the same core.RoundContext contract.
package async

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/learner"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Config describes an asynchronous run.
type Config struct {
	Graph *graph.Graph
	// Algo supplies the schedule and participation policy. Aggregation is
	// always pairwise gossip averaging (AD-PSGD style); the Weights matrix
	// of the synchronous engine is not used, and an algorithm that asks for
	// global averaging (core.AggGlobal) is rejected.
	Algo core.Algorithm
	// Horizon is the virtual time to simulate, in seconds.
	Horizon float64
	// StepsPerNode optionally bounds the number of local steps any node
	// may take (0 = unbounded within the horizon).
	StepsPerNode int

	// ModelFactory is called once, with node -1; Network.Init draws node
	// i's weights from its model stream, so every layer must draw from the
	// r it is given.
	ModelFactory func(node int, r *rng.RNG) *nn.Network
	LR           float64
	BatchSize    int
	LocalSteps   int

	Partition dataset.Partition
	Test      *dataset.Dataset

	// Devices set per-node step durations and energy; required.
	Devices  []energy.Device
	Workload energy.Workload

	// Trace attaches an energy-harvesting trace: nodes then run on real
	// battery state (harvest.VFleet) instead of the pure step clock —
	// training steps drain the battery continuously, an unaffordable one
	// becomes a gossip step, an unaffordable gossip puts the node to sleep
	// until the solved charge-arrival crossing, and brown-outs interrupt
	// in-flight work. Nil keeps the energy-oblivious engine.
	Trace harvest.Trace
	// FleetOptions shape the batteries when Trace is set (same knobs as
	// the synchronous engines).
	FleetOptions harvest.Options
	// RoundSeconds maps virtual seconds onto trace rounds: trace round k
	// spans [k·RoundSeconds, (k+1)·RoundSeconds). 0 defaults to the fleet
	// mean training-step duration, so one trace round ≈ one synchronous
	// round of the average device.
	RoundSeconds float64
	// Forecast supplies per-round harvest predictions to forecast-aware
	// policies (HorizonPlan); requires Trace and ForecastHorizon ≥ 1.
	// Learning forecasters (harvest.ForecastObserver) are rejected: the
	// async engine has no serial round close to observe arrivals on.
	Forecast        harvest.Forecaster
	ForecastHorizon int

	// EvalEverySeconds evaluates all nodes at this virtual period
	// (0 = final only); an evaluation reads the run and does not change it.
	// EvalSubsample bounds test samples per evaluation.
	EvalEverySeconds float64
	EvalSubsample    int

	// Probe optionally attaches the observability layer (internal/obs):
	// the engine emits the run manifest, per-evaluation accuracy events
	// stamped with virtual time, and a run_end with total step/gossip
	// counts. Harvest runs additionally stream VTime-stamped brownout and
	// revival events plus the fleet energy ledger at every eval tick, so
	// analyze.Auditor's conservation invariants extend to the roundless
	// stream. Nil is the off state. Telemetry is read-only and RNG-silent.
	Probe *obs.Probe

	Seed uint64
}

// syncSpeedup is how much faster a gossip-only step is than a training step
// (communication is cheap).
const syncSpeedup = 10

// spec is the part of c both engines share (internal/learner).
func (c *Config) spec() learner.Spec {
	return learner.Spec{Graph: c.Graph, Algo: c.Algo, ModelFactory: c.ModelFactory, LR: c.LR,
		BatchSize: c.BatchSize, LocalSteps: c.LocalSteps, Partition: c.Partition, Test: c.Test,
		EvalSubsample: c.EvalSubsample, Devices: c.Devices, Workload: c.Workload, Seed: c.Seed,
		Battery: c.Trace != nil, Forecast: c.Forecast, ForecastHorizon: c.ForecastHorizon}
}

// validate makes the checks both engines share, then the event engine's.
func (c *Config) validate(s *learner.Spec) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("async: %w", err)
	}
	_, learns := c.Forecast.(harvest.ForecastObserver)
	slots, every := 0.0, c.EvalEverySeconds // the fleet's step slots bound the evaluations a history is sized for
	for _, d := range c.Devices {
		slots += math.Ceil(c.Horizon / d.TrainRoundSeconds(c.Workload))
	}
	switch {
	case !(c.Horizon > 0 && c.Horizon < math.Inf(1)):
		return fmt.Errorf("async: horizon %v is not positive and finite", c.Horizon)
	case c.Devices == nil:
		return fmt.Errorf("async: no devices; they set every node's step duration")
	case c.Algo.Aggregation == core.AggGlobal:
		return fmt.Errorf("async: %s averages globally, but the asynchronous engine only gossips pairwise", c.Algo.Label)
	case !(c.RoundSeconds >= 0 && c.RoundSeconds < math.Inf(1)):
		return fmt.Errorf("async: round duration %v is not finite and non-negative", c.RoundSeconds)
	case !(c.EvalEverySeconds >= 0):
		return fmt.Errorf("async: evaluation period %v is negative or NaN", c.EvalEverySeconds)
	case c.StepsPerNode <= 0 && !(slots < math.MaxInt64):
		return fmt.Errorf("async: horizon %v holds %.4g step slots, more than an int counts; cap them with StepsPerNode", c.Horizon, slots)
	case every > 0 && every < c.Horizon && (c.Horizon+every == c.Horizon || c.Horizon/every > slots):
		return fmt.Errorf("async: evaluation period %v asks for %.4g evaluations in horizon %v, more than the fleet's %.0f step slots", every, c.Horizon/every, c.Horizon, slots)
	case learns:
		return fmt.Errorf("async: forecaster %s learns from per-round observations, which the event-driven engine does not produce", c.Forecast.Name())
	}
	return nil
}

// Snapshot is one evaluation point in virtual time.
type Snapshot struct {
	Time       float64
	MeanAcc    float64
	StdAcc     float64
	Consensus  float64
	StepsTotal int
	TrainWh    float64
}

// Result is the outcome of an asynchronous run.
type Result struct {
	// Manifest is the run's content-addressable identity (internal/obs).
	Manifest     obs.RunManifest
	History      []Snapshot
	FinalMeanAcc float64
	FinalStdAcc  float64
	// FinalGlobalAcc is the accuracy of the average of all node models at
	// the horizon: the fleet mean every evaluation computes for Consensus.
	FinalGlobalAcc float64
	TotalTrainWh   float64
	StepsPerNode   []int // local steps completed per node
	TrainedSteps   []int // steps that included training
	GossipsSent    int

	// Harvest-run outcomes (zero without a trace):
	// Brownouts counts brown-out interrupts — in-flight work hitting the
	// cutoff plus sleeping nodes drained across it.
	Brownouts int
	// BrownoutShare is the fraction of total node-time spent browned out.
	BrownoutShare float64
	// DroppedGossips counts exchanges skipped because the chosen peer was
	// browned out.
	DroppedGossips int
	// HarvestedWh/ConsumedWh/WastedWh are the fleet ledger totals.
	HarvestedWh float64
	ConsumedWh  float64
	WastedWh    float64
}

// eventKind types the entries of the virtual-time heap.
type eventKind uint8

const (
	// evStep: the node is free at ev.time and processes its next local
	// step (merge, decide, train or gossip).
	evStep eventKind = iota
	// evWake: a sleeping node's charge-arrival crossing — re-check
	// affordability and resume stepping.
	evWake
	// evBrownout: the node's battery hit its cutoff at ev.time (mid-step
	// or while sleeping); marks it down until the next wake.
	evBrownout
	// evEval: fleet-wide evaluation tick (node −1); reschedules itself
	// every EvalEverySeconds.
	evEval
)

// event is one scheduled occurrence in virtual time.
type event struct {
	time float64
	kind eventKind
	node int
	seq  int // tiebreaker for determinism
}

// eventQueue is a binary min-heap of events on the key (time, seq). Every
// seq is used once, so the key is a strict total order and the pop
// sequence does not depend on how the heap happens to be laid out. It is
// typed, unlike container/heap, which boxes each event on the way in and
// again on the way out.
type eventQueue []event

func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	*q = h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.Less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	*q = h
	for i := 0; ; {
		child := 2*i + 1
		if child >= last {
			break
		}
		if child+1 < last && h.Less(child+1, child) {
			child++
		}
		if !h.Less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	return top
}

// mailbox holds, per node, the running sum of the models gossip delivered
// since its last step and how many there were: a push adds, a merge
// divides. The sums are one per-run vector of N·p floats, so a gossip
// allocates nothing and the mailbox does not grow however deep a slow
// node's queue gets.
type mailbox struct {
	p      int
	sums   tensor.Vector // node i's sum is sums[i·p : (i+1)·p]
	counts []int
}

func newMailbox(n, p int) mailbox {
	return mailbox{p: p, sums: tensor.NewVector(n * p), counts: make([]int, n)}
}

// push adds src into node i's sum.
func (m *mailbox) push(i int, src tensor.Vector) {
	tensor.AXPY(m.sums[i*m.p:(i+1)*m.p], 1, src)
	m.counts[i]++
}

// merge sets node i's model x, in place, to the uniform mean of x and the
// k models queued on it, (x + Σq)/(k+1), and empties the sum.
func (m *mailbox) merge(i int, x tensor.Vector) {
	k := m.counts[i]
	if k == 0 {
		return
	}
	s, d := m.sums[i*m.p:(i+1)*m.p], float64(k+1)
	for j := range s {
		x[j] = (x[j] + s[j]) / d
		s[j] = 0
	}
	m.counts[i] = 0
}

type asyncNode struct {
	id     int
	gossip *rng.RNG

	// Harvest-run state.
	down        bool    // browned out (a brownout event was emitted)
	downSince   float64 // virtual time the current outage began
	downTotal   float64 // accumulated outage seconds
	wakePending bool    // an evWake is already on the heap
	sleptWh     float64 // the charge when that wake was scheduled
}

// Run executes the asynchronous simulation.
func Run(cfg Config) (*Result, error) {
	spec := cfg.spec()
	if err := cfg.validate(&spec); err != nil {
		return nil, err
	}
	ln := spec.NewNodes(learner.Nodes{}, 0xa51c) // the event loop trains on one network at a time; evaluation scores nodes in parallel
	n := cfg.Graph.N
	nodes, gossip := make([]asyncNode, n), make([]rng.RNG, n)
	for i := range nodes {
		rng.DeriveTo(&gossip[i], cfg.Seed, uint64(i), 0x905517)
		nodes[i] = asyncNode{id: i, gossip: &gossip[i]}
	}

	// Per-node step durations and the step-count horizon every round
	// context carries: how many steps fit in the horizon, or the cap,
	// whichever binds.
	stepSec := make([]float64, n)
	hsteps := make([]int, n)
	for i := range stepSec {
		stepSec[i] = cfg.Devices[i].TrainRoundSeconds(cfg.Workload)
		hsteps[i] = cfg.StepsPerNode
		if h := math.Ceil(cfg.Horizon / stepSec[i]); cfg.StepsPerNode <= 0 || h < float64(cfg.StepsPerNode) {
			hsteps[i] = int(h)
		}
	}

	// The harvest fleet, when a trace is attached.
	var vf *harvest.VFleet
	roundSec := cfg.RoundSeconds
	if cfg.Trace != nil {
		if roundSec == 0 {
			roundSec = energy.MeanTrainRoundSeconds(cfg.Devices, cfg.Workload)
		}
		var err error
		vf, err = harvest.NewVFleet(cfg.Devices, cfg.Workload, cfg.Trace, cfg.FleetOptions, roundSec)
		if err != nil {
			return nil, err
		}
	}

	res := &Result{StepsPerNode: make([]int, n), TrainedSteps: make([]int, n)}
	res.Manifest = buildManifest(&cfg, &spec, ln.ParamCount, vf)
	probe, chargeWh := cfg.Probe, 0.0
	if vf != nil {
		chargeWh = vf.TotalChargeWh()
	}
	probe.RunStart(&res.Manifest, chargeWh)
	queue := make(eventQueue, 0, 3*n+1) // a node's step or wake, and up to two brown-outs; the eval tick
	seq := 0
	push := func(t float64, kind eventKind, node int) {
		queue.push(event{time: t, kind: kind, node: node, seq: seq})
		seq++
	}
	mail := newMailbox(n, ln.ParamCount)
	for i := 0; i < n; i++ {
		// Stagger starts by a fraction of the node's own step time so the
		// fleet does not begin in lockstep.
		push(stepSec[i]*nodes[i].gossip.Float64(), evStep, i)
	}
	if cfg.EvalEverySeconds > 0 && cfg.EvalEverySeconds < cfg.Horizon {
		push(cfg.EvalEverySeconds, evEval, -1)
	}
	// Nodes whose batteries start at or below the cutoff are browned out
	// from the first instant: emit the transition at VTime 0 so the
	// alternation invariant sees their eventual revival.
	if vf != nil {
		for i := 0; i < n; i++ {
			if !vf.Usable(i) {
				nodes[i].down = true
				res.Brownouts++
				probe.Emit(obs.Event{Kind: obs.KindBrownout, Round: 0, Node: i})
			}
		}
	}

	trainWh, steps, trained := 0.0, 0, 0 // fleet totals
	// One fleet mean per run, which consensus and the mean model's score
	// both read, and one snapshot per evaluation: the periodic ones, at
	// most Horizon/EvalEverySeconds, then the horizon's.
	evaluator := spec.NewEvaluator(learner.Evaluator{}, ln, make([]float64, n), tensor.NewVector(ln.ParamCount), true)
	evals := 1
	if cfg.EvalEverySeconds > 0 && cfg.EvalEverySeconds < cfg.Horizon {
		evals += int(cfg.Horizon / cfg.EvalEverySeconds)
	}
	res.History = make([]Snapshot, 0, evals)
	evaluate := func(t float64) {
		sc := evaluator.Evaluate()
		res.History = append(res.History, Snapshot{
			Time: t, MeanAcc: sc.Mean, StdAcc: sc.Std, Consensus: sc.Consensus,
			StepsTotal: steps, TrainWh: trainWh,
		})
		res.FinalMeanAcc, res.FinalStdAcc, res.FinalGlobalAcc = sc.Mean, sc.Std, sc.Global
		probe.Emit(obs.Event{
			Kind: obs.KindEval, Round: len(res.History) - 1, Node: -1,
			VTime: t, MeanAcc: sc.Mean, StdAcc: sc.Std, Steps: steps,
		})
	}

	// ledgerTick emits the fleet energy ledger as a VTime-stamped
	// round_start/round_end pair — the roundless stream's conservation
	// checkpoints. Deltas of the cumulative ledgers, like the synchronous
	// engines; HarvestWh carries arrivals (stored + wasted), Trained the
	// steps trained since the last tick. An evaluation tick settles no
	// battery, since splitting a node's settle interval there would round
	// it differently and so change the run: each node's charge, ledgers
	// and state of charge are as its own last event left them. The
	// horizon's tick comes after AdvanceAll settles every node to it. The
	// ledger exists for the probe alone, so without one there is none, and
	// no SoC sketch.
	var socSketch *obs.Sketch
	if vf != nil && probe.Enabled() {
		socSketch = obs.NewSoCSketch()
	}
	ticks, lastTrained := 0, 0
	lastArrived, lastConsumed, lastWasted := 0.0, 0.0, 0.0
	ledgerTick := func(t float64) {
		if socSketch == nil {
			return
		}
		arrived := vf.HarvestedWh() + vf.WastedWh()
		consumed := vf.ConsumedWh()
		wasted := vf.WastedWh()
		socSketch.Reset()
		meanSoC, _, depleted := vf.SoCStats(socSketch.Observe)
		probe.Emit(obs.Event{Kind: obs.KindRoundStart, Round: ticks, Node: -1, Label: "tick", VTime: t})
		probe.Emit(obs.Event{
			Kind: obs.KindRoundEnd, Round: ticks, Node: -1, VTime: t,
			Trained: trained - lastTrained, Live: vf.Nodes() - depleted, Depleted: depleted,
			HarvestWh: arrived - lastArrived, ConsumedWh: consumed - lastConsumed,
			WastedWh: wasted - lastWasted, ChargeWh: vf.TotalChargeWh(),
			MeanSoC: meanSoC, SoCP50: socSketch.Quantile(0.50), SoCP90: socSketch.Quantile(0.90), SoCP99: socSketch.Quantile(0.99),
		})
		lastArrived, lastConsumed, lastWasted, lastTrained = arrived, consumed, wasted, trained
		ticks++
	}

	// sleep schedules node i's future after it stops at time t: a wake
	// event at the solved crossing of the gossip cost, the cheapest step it
	// can take, and, if the trajectory dips first, a brown-out event at
	// that crossing. A woken node whose slot is a training slot still asks
	// TryTrain, and gossips if training is unaffordable. A node whose
	// trajectory can never afford a gossip within the horizon gets no wake
	// — it parks (its outage accounting closes at run end).
	var ev event // the event being processed
	sleep := func(nd *asyncNode, t float64) {
		wake, brown := vf.ScanAfford(nd.id, vf.CommCostWh(nd.id), cfg.Horizon)
		if !nd.down && brown < wake && !math.IsInf(brown, 1) {
			push(brown, evBrownout, nd.id)
		}
		if !math.IsInf(wake, 1) {
			// Progress guard: the scan's float association differs from the
			// realized one, so a wake can land a few ulps short and re-solve
			// to "now", or so close that the charge does not move. Then wait
			// for the end of the trace round that holds t.
			if wake <= t || (ev.kind == evWake && ev.time == t && vf.ChargeWh(nd.id) == nd.sleptWh) {
				wake = max(wake, float64(vf.TraceRound(t)+1)*vf.RoundSeconds())
			}
			push(wake, evWake, nd.id)
			nd.wakePending, nd.sleptWh = true, vf.ChargeWh(nd.id)
		}
	}

	for len(queue) > 0 {
		ev = queue.pop()
		if ev.time > cfg.Horizon {
			break
		}
		if ev.kind == evEval {
			evaluate(ev.time)
			ledgerTick(ev.time)
			if next := ev.time + cfg.EvalEverySeconds; next < cfg.Horizon {
				push(next, evEval, -1)
			}
			continue
		}

		nd := &nodes[ev.node]
		now := ev.time

		if ev.kind == evBrownout {
			if vf == nil || nd.down {
				continue
			}
			vf.AdvanceNode(nd.id, now)
			nd.down, nd.downSince = true, now
			res.Brownouts++
			probe.Emit(obs.Event{Kind: obs.KindBrownout, Round: vf.TraceRound(now), Node: nd.id, VTime: now})
			if !nd.wakePending {
				sleep(nd, now)
			}
			continue
		}

		if ev.kind == evWake {
			nd.wakePending = false
			vf.AdvanceNode(nd.id, now)
			if nd.down {
				nd.down = false
				nd.downTotal += now - nd.downSince
				probe.Emit(obs.Event{
					Kind: obs.KindRevival, Round: vf.TraceRound(now), Node: nd.id, VTime: now,
					Staleness: int((now - nd.downSince) / vf.RoundSeconds()),
				})
			}
			// Fall through into the step logic below.
		}

		if cfg.StepsPerNode > 0 && res.StepsPerNode[nd.id] >= cfg.StepsPerNode {
			continue
		}
		if vf != nil {
			vf.AdvanceNode(nd.id, now)
		}

		// 1. Merge everything that arrived while we were busy (AD-PSGD
		//    pairwise averaging, generalized to k pending models).
		mail.merge(nd.id, ln.Params[nd.id])

		// 2. Decide the step kind from the node's own step counter — the
		//    same Γ pattern and policy contract as the synchronous engine,
		//    with the virtual-time battery and forecast state threaded
		//    through the context when a fleet is attached.
		ctx := core.ContextAt(cfg.Algo.Schedule, res.StepsPerNode[nd.id], hsteps[nd.id])
		ctx.Trained = res.TrainedSteps[nd.id]
		round := 0 // the trace round a forecast starts from
		if vf != nil {
			ctx.Battery, round = vf, vf.TraceRound(now)
		}
		trainingStep := ctx.Kind == core.RoundTrain && spec.Participate(&ln, nd.id, ctx, round)
		dur := stepSec[nd.id]

		// Battery policies admit via TryTrain themselves; admit on their
		// behalf for energy-oblivious policies. A refused step gossips, as
		// it does when a battery policy refuses, and as in the sync engine.
		trainingStep = trainingStep && (vf == nil || vf.TryTrain(nd.id))
		if trainingStep && vf != nil {
			stop, browned := vf.TrainStep(nd.id, now+dur)
			if browned {
				// The in-flight step hit the cutoff: computation discarded,
				// partial energy spent, the slot retried after revival.
				push(stop, evBrownout, nd.id)
				sleep(nd, stop)
				continue
			}
		}
		if trainingStep {
			spec.Train(&ln, nd.id)
			trainWh += cfg.Devices[nd.id].TrainRoundWh(cfg.Workload)
			res.TrainedSteps[nd.id]++
			trained++
		} else {
			dur /= syncSpeedup
			if vf != nil {
				vf.ClearPending(nd.id)
				if !vf.TrySync(nd.id) {
					sleep(nd, now)
					continue
				}
			}
		}

		// 3. Symmetric gossip with one random neighbor: push our model to
		//    the peer and pull the peer's current model into our own merge
		//    queue — the event-driven equivalent of AD-PSGD's atomic
		//    pairwise averaging (push-only gossip mixes half as fast and
		//    does not preserve the network average). A browned-out peer is
		//    off the air: the exchange is dropped.
		nbrs := cfg.Graph.Adj[nd.id]
		peer := nbrs[nd.gossip.Intn(len(nbrs))]
		if vf != nil && nodes[peer].down {
			res.DroppedGossips++
			probe.DroppedSends(vf.TraceRound(now), 1)
		} else {
			mail.push(peer, ln.Params[nd.id])
			mail.push(nd.id, ln.Params[peer])
			res.GossipsSent++
		}

		res.StepsPerNode[nd.id]++
		steps++
		if !trainingStep && vf != nil {
			// The comm lump is already paid; idle draw can still brown the
			// node during the (short) exchange. The gossip stands either
			// way — the model left the radio before the lights went out.
			if stop, browned := vf.AdvanceDetect(nd.id, now+dur); browned {
				push(stop, evBrownout, nd.id)
				continue
			}
		}
		push(now+dur, evStep, nd.id)
	}

	if vf != nil {
		vf.AdvanceAll(cfg.Horizon)
	}
	evaluate(cfg.Horizon)
	ledgerTick(cfg.Horizon)
	res.TotalTrainWh = trainWh
	if vf != nil {
		down := 0.0
		for i := range nodes {
			if nd := &nodes[i]; nd.down {
				nd.downTotal += cfg.Horizon - nd.downSince
			}
			down += nodes[i].downTotal
		}
		res.BrownoutShare = down / (float64(n) * cfg.Horizon)
		res.HarvestedWh = vf.HarvestedWh()
		res.ConsumedWh = vf.ConsumedWh()
		res.WastedWh = vf.WastedWh()
	}
	probe.RunEnd(obs.Event{VTime: cfg.Horizon, Steps: steps, Trained: trained, Gossips: res.GossipsSent})
	return res, nil
}

// buildManifest derives the async run's content-addressable identity from
// the experiment-defining config fields (GOMAXPROCS and telemetry excluded:
// the event loop is serial and bit-reproducible regardless).
func buildManifest(cfg *Config, spec *learner.Spec, paramCount int, vf *harvest.VFleet) obs.RunManifest {
	b := spec.Manifest("async", 0, paramCount, cfg.Partition.Fingerprint(), cfg.Test.Fingerprint()).
		SetFloat("horizon_s", cfg.Horizon).
		SetInt("steps_per_node", cfg.StepsPerNode).
		SetFloat("sync_speedup", float64(syncSpeedup)).
		SetFloat("eval_every_s", cfg.EvalEverySeconds)
	if vf != nil {
		// The battery spec is experiment identity too.
		b = b.Set("trace", cfg.Trace.Name()).
			SetFloat("round_seconds", vf.RoundSeconds())
		vf.SetManifest(b)
	}
	return b.Build()
}
