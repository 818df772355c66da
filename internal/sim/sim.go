// Package sim is the round-synchronous decentralized-learning engine: the
// Go counterpart of the DecentralizePy deployment the paper runs on.
//
// Every node is simulated with its own model, its own data partition and
// its own RNG streams, all in one process. A round executes in barriered
// phases that mirror Algorithm 1/2:
//
//  1. local phase — nodes that participate train E local SGD steps; a
//     node's model vector then holds its half-step model x^{t-1/2};
//  2. aggregate phase — every node lists its W row's operands, its own
//     vector first, then each live neighbor's vector in adjacency order, read
//     where it lies; then all the W-weighted averages are taken block by
//     block and written over the models in place (nn.Mix);
//  3. (optionally) evaluation on the shared test set.
//
// A node's model vector is its only model-sized state. It is written in
// phase 1 and in phase 2's mix, where a block of it is written only once
// every average that reads the block is summed, so its neighbors may read
// it in place; the gradient vectors belong to the run, one per train
// worker. See docs/ARCHITECTURE.md for who may write which vector when.
//
// When a harvest fleet is attached (Config.Harvest), every round also closes
// with a battery update — idle and communication draw, then ambient energy
// harvest — and the round metrics carry the fleet's state of charge.
//
// With Config.DropDeadNodes, brown-outs also silence the topology: every
// round starts by snapshotting the live set, no model is sent to or from a
// dead node for the round, and the mixing matrix is re-normalized over the
// live subgraph (graph.RenormalizeLiveTo) so aggregation stays doubly
// stochastic on the live component. With Config.Rejoin, a reviving node's
// frozen model is rewritten by a staleness-aware rejoin rule (rejoin.go)
// before it trains again. See docs/ARCHITECTURE.md for the full round
// walkthrough.
//
// Phases are fanned out across GOMAXPROCS workers, but all stochastic
// state is per-node, so results are bit-identical regardless of
// parallelism.
package sim

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/learner"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Config describes one experiment run.
type Config struct {
	Graph   *graph.Graph
	Weights *graph.Weights
	Algo    core.Algorithm
	Rounds  int

	// Model and training hyperparameters (Table 1).
	ModelFactory func(node int, r *rng.RNG) *nn.Network
	LR           float64
	BatchSize    int
	LocalSteps   int

	// Data.
	Partition dataset.Partition
	Test      *dataset.Dataset

	// Evaluation cadence: evaluate after every EvalEvery rounds (and always
	// after the final round). 0 means final-round only. EvalSubsample
	// bounds the number of test samples per evaluation (0 = all).
	EvalEvery     int
	EvalSubsample int
	// EvalGlobalModel also evaluates the average of all node models (the
	// all-reduce consensus model of Figure 1).
	EvalGlobalModel bool
	// TrackConsensus records the consensus distance every evaluation.
	TrackConsensus bool

	// Energy model: per-node devices (use energy.AssignDevices) and the
	// per-round workload. Both optional; when absent energy is not tracked.
	Devices  []energy.Device
	Workload energy.Workload

	// Harvest optionally attaches a battery/harvesting fleet
	// (internal/harvest) covering Graph.N nodes. Training drains batteries
	// only through the harvest policies' TryTrain — pair the fleet with a
	// charge-aware Algo.Policy — while the engine closes every round with
	// EndRound: idle and communication draw, then ambient harvest.
	// State-of-charge statistics land in RoundMetrics; set TrackSoC to also
	// record the full per-node SoC snapshot each round.
	Harvest  *harvest.Fleet
	TrackSoC bool

	// Forecast attaches a harvest forecaster (internal/harvest): on every
	// coordinated training round the engine fills the deciding node's
	// RoundContext.Forecast with ForecastHorizon predicted per-round
	// arrivals (rounds t..t+H-1), which planning policies such as
	// harvest.HorizonPlan consume. After every battery update the engine
	// feeds realized arrivals back to forecasters that learn from them
	// (harvest.ForecastObserver). Requires a Harvest fleet and a positive
	// ForecastHorizon.
	Forecast        harvest.Forecaster
	ForecastHorizon int

	// DropDeadNodes makes node liveness a first-class, per-round property
	// of the topology: at the start of every round the engine snapshots the
	// live set (nodes above their brown-out cutoff), sends nothing to or
	// from a dead node for the round, and re-normalizes the mixing matrix
	// over the induced live subgraph (graph.RenormalizeLiveTo), so
	// aggregation stays symmetric and doubly stochastic on the live
	// component. Dead nodes freeze: no
	// training, no sends, no receives, model held until they recharge, and
	// they pay idle draw only (harvest.Fleet.EndRoundLive). Without this
	// flag the engine routes sync traffic through depleted nodes unchanged
	// — the optimistic baseline the brown-out experiments compare against.
	// Requires a Harvest fleet or a Liveness hook, and neighborhood
	// aggregation (AggGlobal has no topology to drop edges from). The
	// configured Weights are used verbatim on all-live rounds, so they
	// should be graph.Metropolis for consistency with renormalized rounds.
	DropDeadNodes bool
	// Liveness overrides the fleet-derived live set: it is called once at
	// the start of round t and returns the mask of powered nodes (nil means
	// all live). The returned slice is only read before the next call.
	// When nil and a Harvest fleet is attached, liveness is the fleet's
	// per-node Usable state.
	Liveness func(t int) []bool

	// Rejoin decides what a node resumes with when it revives: its frozen
	// model (ResumeStale), the freshest aggregated state in its live
	// neighborhood (RestoreCheckpoint), or a staleness-discounted blend of
	// the two (CatchUp). Rejoins happen before the round's training phase,
	// in node order, each read only from neighbors that did not revive this
	// round, so runs stay bit-reproducible at any GOMAXPROCS. Nil is off.
	// Requires DropDeadNodes (without it dead nodes never freeze, so there
	// is nothing to rejoin from).
	Rejoin RejoinRule

	// Probe optionally attaches the observability layer (internal/obs):
	// the engine emits round boundaries, per-phase wall-clock timings,
	// brown-out/revival events, dropped-send counts, evaluations, and
	// streamed SoC percentiles into the probe's sink. A nil probe is the
	// off state and costs one nil check per emission site. Telemetry is
	// read-only and RNG-silent: a telemetry-on run produces bit-identical
	// model state to the same run with telemetry off (pinned by test).
	Probe *obs.Probe

	Seed uint64
}

// spec is the part of c both engines share (internal/learner).
func (c *Config) spec() learner.Spec {
	return learner.Spec{Graph: c.Graph, Algo: c.Algo, ModelFactory: c.ModelFactory, LR: c.LR,
		BatchSize: c.BatchSize, LocalSteps: c.LocalSteps, Partition: c.Partition, Test: c.Test,
		EvalSubsample: c.EvalSubsample, Devices: c.Devices, Workload: c.Workload, Seed: c.Seed,
		Battery: c.Harvest != nil, Forecast: c.Forecast, ForecastHorizon: c.ForecastHorizon}
}

// validate makes the checks both engines share, then the round engine's.
func (c *Config) validate(s *learner.Spec) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	switch {
	case c.Weights == nil:
		return fmt.Errorf("sim: nil weights")
	case c.Rounds < 1:
		return fmt.Errorf("sim: need >= 1 round, got %d", c.Rounds)
	case len(c.Weights.Self) != c.Graph.N || len(c.Weights.Nbr) != c.Graph.N:
		return fmt.Errorf("sim: weights for %d nodes, graph has %d", len(c.Weights.Self), c.Graph.N)
	}
	for i := range c.Weights.Nbr {
		if len(c.Weights.Nbr[i]) != c.Graph.Degree(i) {
			return fmt.Errorf("sim: weights give node %d %d neighbors, the graph %d", i, len(c.Weights.Nbr[i]), c.Graph.Degree(i))
		}
	}
	// A fleet or learning forecaster that already ran carries drained
	// batteries or observation history; a second run on it would silently
	// splice that history into this one.
	fc, learns := c.Forecast.(interface{ Consumed() bool })
	switch {
	case c.Harvest != nil && c.Harvest.Nodes() != c.Graph.N:
		return fmt.Errorf("sim: harvest fleet covers %d nodes, graph has %d", c.Harvest.Nodes(), c.Graph.N)
	case c.Harvest != nil && c.Harvest.Consumed():
		return fmt.Errorf("sim: harvest fleet already consumed by a prior run; call Fleet.Reset or build a fresh fleet")
	case c.TrackSoC && c.Harvest == nil:
		return fmt.Errorf("sim: TrackSoC requires a harvest fleet")
	case learns && fc.Consumed():
		return fmt.Errorf("sim: forecaster %s already consumed by a prior run; call Reset or build a fresh forecaster", c.Forecast.Name())
	case c.DropDeadNodes && c.Harvest == nil && c.Liveness == nil:
		return fmt.Errorf("sim: DropDeadNodes needs a harvest fleet or a Liveness hook")
	case c.DropDeadNodes && c.Algo.Aggregation == core.AggGlobal:
		return fmt.Errorf("sim: DropDeadNodes requires neighborhood aggregation")
	case c.Rejoin != nil && !c.DropDeadNodes:
		return fmt.Errorf("sim: Rejoin requires DropDeadNodes (dead nodes must freeze to have state worth rejoining from)")
	}
	return nil
}

// RoundMetrics records one round of the run. Accuracy fields are only
// meaningful when Evaluated is true.
type RoundMetrics struct {
	Round        int
	Kind         core.RoundKind
	TrainedCount int
	Evaluated    bool
	MeanAcc      float64 // mean Top-1 accuracy across nodes
	StdAcc       float64 // std of Top-1 accuracy across nodes (Fig. 4 shadow)
	GlobalAcc    float64 // accuracy of the averaged model (Fig. 1)
	Consensus    float64 // mean L2 distance to the mean model
	CumTrainWh   float64 // cumulative network training energy (Eq. 3)
	CumCommWh    float64 // cumulative sharing/aggregation energy

	// Battery state (only meaningful when Config.Harvest is set).
	MeanSoC      float64 // fleet-average state of charge after the round
	MinSoC       float64 // lowest state of charge in the fleet
	Depleted     int     // nodes at or below their brown-out cutoff
	CumHarvestWh float64 // cumulative stored ambient energy
	CumWastedWh  float64 // cumulative harvest that arrived on full batteries
	// SoCP50/P90/P99 are the fleet's state-of-charge percentiles after the
	// round, streamed through a fixed-bin quantile sketch (internal/obs):
	// exact to within one sketch bin (1/256) without materializing a
	// per-node slice. Always filled on harvest runs.
	SoCP50, SoCP90, SoCP99 float64
	// SoCs is the full per-node SoC snapshot. It allocates O(nodes) per
	// round and exists for consumers that need the exact distribution;
	// set Config.TrackSoC to keep it. The streamed percentiles above are
	// the allocation-free default.
	SoCs []float64 // per-node SoC snapshot (Config.TrackSoC only)

	// Live-topology state, recorded whenever a live-set source exists (a
	// harvest fleet or a Liveness hook), in both route-through-dead and
	// drop-and-renormalize runs, so the two modes are directly comparable.
	LiveCount      int     // nodes powered at the start of the round
	MeanLiveDegree float64 // mean induced degree over live nodes
	LiveComponents int     // connected components of the live subgraph
	// DroppedSends counts the models live nodes withheld from dead
	// neighbors this round: the directed edges from a live node to a dead
	// one (Config.DropDeadNodes runs only; always 0 when routing through).
	DroppedSends int
	// Revivals and their staleness, recorded whenever a live-set source
	// exists; Restores needs a Config.Rejoin rule.
	Revivals      int     // nodes back from a brown-out this round
	Restores      int     // revivals whose rejoin rule replaced the frozen model
	MeanStaleness float64 // mean rounds-missed across this round's revivals (0 when none)
	MaxStaleness  int     // largest rounds-missed across this round's revivals
}

// Result is the outcome of a run.
type Result struct {
	// Manifest is the run's content-addressable identity: a stable hash of
	// the configuration and seed plus the code version (internal/obs). Two
	// results with equal ConfigHash and GitRevision are interchangeable —
	// the cache key of the memoized sweep service.
	Manifest obs.RunManifest

	History []RoundMetrics
	// Final values (from the last evaluation).
	FinalMeanAcc, FinalStdAcc, FinalGlobalAcc float64
	// FinalNodeAccs holds each node's accuracy at the last evaluation,
	// enabling the fairness analyses of the paper's Section 5.1.
	FinalNodeAccs []float64
	// FinalGlobalParams is the average of all node models after the last
	// round when EvalGlobalModel or TrackConsensus is set (nil otherwise).
	// It is the deployable consensus model: Network.SetParams loads it.
	FinalGlobalParams tensor.Vector
	// Energy totals.
	TotalTrainWh, TotalCommWh float64
	// Harvest totals and final per-node state of charge (Config.Harvest
	// runs only; FinalSoC is nil otherwise). TotalWastedWh is ambient
	// energy that arrived while batteries were full — the quantity a
	// harvest-aware Γ schedule exists to shrink.
	TotalHarvestWh float64
	TotalWastedWh  float64
	FinalSoC       []float64
	// TrainedRounds counts how many rounds each node actually trained.
	TrainedRounds []int
	// TotalDroppedSends sums DroppedSends over the run.
	TotalDroppedSends int
	// TotalRevivals and TotalRestores count brown-out rejoins over the
	// whole run and how many of them replaced the frozen model.
	TotalRevivals, TotalRestores int
}

// MeanRejoinStaleness returns the revival-weighted mean staleness over the
// whole run: how many rounds the average rejoining node had missed. 0 when
// the run saw no revivals.
func (r *Result) MeanRejoinStaleness() float64 {
	if r.TotalRevivals == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range r.History {
		sum += m.MeanStaleness * float64(m.Revivals)
	}
	return sum / float64(r.TotalRevivals)
}

// Evaluations returns only the evaluated rounds of the history.
func (r *Result) Evaluations() []RoundMetrics {
	var out []RoundMetrics
	for _, m := range r.History {
		if m.Evaluated {
			out = append(out, m)
		}
	}
	return out
}

// run is what the phase bodies of one Run share: the node slab and the
// current round's view, which the loop writes between barriers and the
// bodies only read. The bodies are methods, bound once before the loop, so
// a round allocates no closure; each writes node-i state only.
type run struct {
	cfg  *Config
	spec learner.Spec
	ln   learner.Nodes
	// trained[i] counts the rounds node i trained (Result.TrainedRounds).
	trained []int
	acct    *energy.Accountant
	// grads is the free list of gradient vectors, one per train worker: a
	// node takes one for its train call and puts it back.
	grads chan tensor.Vector
	// collect lists node i's operands in rows[i] (none: it holds its model);
	// each mix worker averages through its own share of sums and ops.
	rows []nn.MixRow
	sums tensor.Vector
	ops  []tensor.Vector

	ctx core.RoundContext // Round and Kind are the current round's
	// dead is the live mask on rounds where the topology actually loses
	// edges — collect reads no dead operand and weights is the matrix
	// rebuilt over the live subgraph — and nil on all others (configured
	// Weights).
	dead    []bool
	weights *graph.Weights
	// lastLive[i] is the last round node i was live, -1 before round 0
	// (every node counts as live before the run); nil without a live-set
	// source. nbrMean is the rejoin rule's neighbor mean (Config.Rejoin).
	lastLive []int
	nbrMean  tensor.Vector
}

// down reports that node i is browned out on a round that drops dead nodes:
// unpowered, it neither trains nor mixes, no neighbor reads its model, and
// it holds that model (W's row is the identity) until it recharges past the
// cutoff.
func (r *run) down(i int) bool { return r.dead != nil && !r.dead[i] }

// alive reads a live mask, where nil means every node is live.
func alive(live []bool, i int) bool { return live == nil || live[i] }

// transitions is the one pass over lastLive after round t's live-set
// snapshot: it emits the brown-outs and revivals, rejoins each revival (with
// staleness t-1-lastLive[i]) and counts the sends live nodes owe dead
// neighbors on drop rounds. lastLive moves to t only after the pass, so a
// node that revives this round is never read as a live neighbor.
func (r *run) transitions(live []bool, m *RoundMetrics) {
	g, probe, t := r.cfg.Graph, r.cfg.Probe, r.ctx.Round
	for i, last := range r.lastLive {
		if !alive(live, i) {
			if last == t-1 {
				probe.Brownout(t, i)
			}
			continue
		}
		if r.dead != nil {
			m.DroppedSends += g.Degree(i) - g.LiveDegree(live, i)
		}
		if stale := t - 1 - last; stale > 0 {
			m.Revivals++
			m.MeanStaleness += float64(stale)
			m.MaxStaleness = max(m.MaxStaleness, stale)
			if r.rejoin(i, stale, live) {
				m.Restores++
			}
			probe.Revival(t, i, stale)
		}
	}
	if m.Revivals > 0 {
		m.MeanStaleness /= float64(m.Revivals)
	}
	for i := range r.lastLive {
		if alive(live, i) {
			r.lastLive[i] = t
		}
	}
}

// rejoin applies the rejoin rule to node i's frozen model, in place, with
// the mean of its continuously-live neighbors (live this round and the
// last: their models are round t-1's aggregates, and no rule writes them).
func (r *run) rejoin(i, stale int, live []bool) bool {
	if r.cfg.Rejoin == nil {
		return false
	}
	mean, cnt := r.nbrMean, 0
	clear(mean)
	for _, j := range r.cfg.Graph.Adj[i] {
		if alive(live, j) && r.lastLive[j] == r.ctx.Round-1 {
			tensor.AXPY(mean, 1, r.ln.Params[j])
			cnt++
		}
	}
	if cnt == 0 {
		mean = nil
	} else {
		tensor.ScaleTo(mean, 1/float64(cnt), mean)
	}
	return r.cfg.Rejoin.Apply(r.ln.Params[i], stale, mean)
}

// train is phase 1: a participating node decides from its own RoundContext
// — the shared start-of-round view (round, horizon, schedule, battery) plus
// its private forecast window — so decisions are independent of worker
// interleaving.
func (r *run) train(i int) {
	cfg, nd := r.cfg, &r.ln.Node[i]
	if r.ctx.Kind != core.RoundTrain || r.down(i) || !r.spec.Participate(&r.ln, i, r.ctx, r.ctx.Round) {
		return
	}
	g := <-r.grads
	nd.Net.LendGrads(g)
	r.spec.Train(nd)
	r.grads <- g
	r.trained[i]++
	if cfg.Devices != nil {
		r.acct.AddTraining(i, cfg.Devices[i].TrainRoundWh(cfg.Workload))
	}
}

// collect is the first half of phase 2: it lists the operands of node i's
// W-row average (Algorithm 1, line 8) — the renormalized row on drop rounds
// — own term first, then each live neighbor's model vector, read in place,
// in adjacency order. A down node lists none: it holds its model.
func (r *run) collect(i int) {
	row, models := &r.rows[i], r.ln.Params
	row.W, row.V = row.W[:0], row.V[:0]
	if r.down(i) {
		return
	}
	row.W, row.V = append(row.W, r.weights.Self[i]), append(row.V, models[i])
	for k, j := range r.cfg.Graph.Adj[i] {
		if !r.down(j) {
			row.W, row.V = append(row.W, r.weights.Nbr[i][k]), append(row.V, models[j])
		}
	}
}

// mix is the second half: worker w, of as many as there are gradient vectors,
// averages its share of the elements of every model, in place (nn.Mix).
func (r *run) mix(w int) {
	k := cap(r.grads)
	p, s, o := r.rows[0].Net.ParamCount(), len(r.sums)/k, len(r.ops)/k
	nn.Mix(r.rows, w*p/k, (w+1)*p/k, r.sums[w*s:(w+1)*s], r.ops[w*o:(w+1)*o])
}

// Run executes the experiment. Everything a round needs is allocated before
// the first one; see "Allocation discipline" in docs/ARCHITECTURE.md.
func Run(cfg Config) (*Result, error) {
	r := &run{cfg: &cfg, spec: cfg.spec()}
	if err := cfg.validate(&r.spec); err != nil {
		return nil, err
	}
	ln, err := r.spec.NewNodes(0x1417)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	g, n, models, paramCount := cfg.Graph, cfg.Graph.N, ln.Params, ln.ParamCount

	maxDeg, edges := 0, 0
	for i := 0; i < n; i++ {
		maxDeg, edges = max(maxDeg, g.Degree(i)), edges+g.Degree(i)
	}
	var liveWeights *graph.Weights // drop rounds renormalize into it
	if cfg.DropDeadNodes {
		liveWeights = graph.NewWeights(g)
	}

	// Node state is the learner's nodes plus every list of vectors and of
	// weights as windows of two slices. Each train and mix worker has a
	// gradient vector and a scratch.
	workers := min(runtime.GOMAXPROCS(0), n)
	result := &Result{TrainedRounds: make([]int, n), History: make([]RoundMetrics, 0, cfg.Rounds)}
	r.ln, r.trained, r.acct = ln, result.TrainedRounds, energy.NewAccountant(n)
	r.grads, r.rows = make(chan tensor.Vector, workers), make([]nn.MixRow, n)
	acct := r.acct
	vecs, ws := make([]tensor.Vector, edges+n+workers*(maxDeg+1)), make([]float64, edges+n)
	for i := 0; i < n; i++ {
		d := g.Degree(i)
		r.rows[i] = nn.MixRow{Net: ln.Node[i].Net, W: ws[: 0 : d+1], V: vecs[: 0 : d+1]}
		vecs, ws = vecs[d+1:], ws[d+1:]
	}
	r.sums, r.ops = tensor.NewVector(workers*n*min(nn.MixBlock, paramCount)), vecs
	for w := 0; w < workers; w++ {
		r.grads <- tensor.NewVector(paramCount)
	}
	train, collect, mix := r.train, r.collect, r.mix

	evaluator := r.spec.NewEvaluator(ln, cfg.TrackConsensus, cfg.EvalGlobalModel)
	cumHarvestWh, trainedTotal := 0.0, 0

	// Every run carries its content-addressable identity; the probe (when
	// attached) additionally streams it on run_start. Telemetry below is
	// strictly read-only and RNG-silent: probe calls observe engine state
	// and wall clocks, never stochastic or model state.
	result.Manifest = buildManifest(&cfg, &r.spec, paramCount)
	probe := cfg.Probe
	if probe.Enabled() && cfg.Harvest != nil {
		// Harvest-coupled runs stamp the fleet's initial total charge on
		// run_start — the baseline the energy-conservation audit
		// (obs/analyze) integrates per-round deltas from.
		probe.RunStartCharge(&result.Manifest, cfg.Harvest.TotalChargeWh())
	} else {
		probe.RunStart(&result.Manifest)
	}
	// Snapshots of the fleet's cumulative drain/overflow ledgers at the
	// previous round close, so round_end can carry this round's deltas.
	// Maintained only while telemetry is on; reads only, so a probed run
	// stays bit-identical to an unprobed one.
	var prevConsumedWh, prevWastedWh float64

	// The SoC quantile sketch streams per-round charge percentiles without
	// materializing a per-node slice; allocated once, reset per round.
	var socSketch *obs.Sketch
	var observeSoC func(float64)
	if cfg.Harvest != nil {
		socSketch = obs.NewSoCSketch()
		observeSoC = socSketch.Observe // bound once: a method value allocates
	}
	// Scratch for the live-set phase's component scan, and the lastLive
	// record, which shares the scan queue's slab.
	var seen []bool
	var queue []int
	haveLiveSource := cfg.Liveness != nil || cfg.Harvest != nil
	if haveLiveSource {
		slab := make([]int, 2*n)
		seen, queue, r.lastLive = make([]bool, n), slab[:0:n], slab[n:]
		for i := range r.lastLive {
			r.lastLive[i] = -1
		}
	}
	if cfg.Rejoin != nil {
		r.nbrMean = tensor.NewVector(paramCount)
	}

	// Scratch for the all-reduce aggregation: the fleet mean.
	var globalMean tensor.Vector
	var adoptMean func(i int)
	if cfg.Algo.Aggregation == core.AggGlobal {
		globalMean = tensor.NewVector(paramCount)
		adoptMean = func(i int) { ln.Node[i].Net.SetParams(globalMean) }
	}

	r.ctx = core.RoundContext{Horizon: cfg.Rounds, Schedule: cfg.Algo.Schedule}
	if cfg.Harvest != nil {
		r.ctx.Battery = cfg.Harvest
	}
	for t := 0; t < cfg.Rounds; t++ {
		kind := cfg.Algo.Schedule.Kind(t)
		r.ctx.Round, r.ctx.Kind = t, kind
		m := RoundMetrics{Round: t, Kind: kind}
		probe.RoundStart(t, kind.String())

		// Phase 0: snapshot the live set from battery state (or the hook)
		// before any phase runs, so liveness is a whole-round property and
		// independent of phase interleaving.
		probe.PhaseStart(obs.PhaseLiveSet)
		var live []bool
		if cfg.Liveness != nil {
			live = cfg.Liveness(t)
			if live != nil && len(live) != n {
				return nil, fmt.Errorf("sim: Liveness(%d) returned %d nodes, graph has %d", t, len(live), n)
			}
		} else if cfg.Harvest != nil {
			live = cfg.Harvest.Live()
		}
		if haveLiveSource {
			// A nil mask means "all live" (the graph helpers share that
			// convention), so the metrics stay truthful on all-live rounds.
			m.LiveCount = n
			if live != nil {
				m.LiveCount = countTrue(live)
			}
			m.MeanLiveDegree = g.MeanLiveDegree(live)
			m.LiveComponents = g.LiveComponentsScratch(live, seen, queue)
		}
		// A round drops dead nodes only when some node is in fact dead (see
		// run.dead); all-live rounds keep the configured Weights.
		r.dead, r.weights = nil, cfg.Weights
		if cfg.DropDeadNodes && live != nil && m.LiveCount < n {
			r.dead, r.weights = live, liveWeights
			graph.RenormalizeLiveTo(liveWeights, g, live)
		}
		probe.PhaseEnd(t, obs.PhaseLiveSet)

		// Phase 0b: brown-outs, revivals and rejoins (run.transitions).
		if haveLiveSource {
			if cfg.Rejoin != nil {
				probe.PhaseStart(obs.PhaseRejoin)
			}
			r.transitions(live, &m)
			if cfg.Rejoin != nil {
				probe.PhaseEnd(t, obs.PhaseRejoin)
			}
			result.TotalRevivals += m.Revivals
			result.TotalRestores += m.Restores
		}

		// Phase 1: local training (run.train).
		probe.PhaseStart(obs.PhaseTrain)
		par.For(n, 0, train)
		for _, c := range r.trained {
			m.TrainedCount += c
		}
		m.TrainedCount -= trainedTotal
		trainedTotal += m.TrainedCount
		probe.PhaseEnd(t, obs.PhaseTrain)

		// Phase 2: aggregate (run.collect, run.mix).
		probe.PhaseStart(obs.PhaseAggregate)
		switch cfg.Algo.Aggregation {
		case core.AggGlobal:
			// Hypothetical all-reduce (Figure 1): global average of all
			// half-step models, applied everywhere.
			tensor.MeanVectorTo(globalMean, models)
			par.For(n, 0, adoptMean)
		default:
			par.For(n, 0, collect)
			par.For(workers, 0, mix)
		}
		probe.PhaseEnd(t, obs.PhaseAggregate)
		if cfg.Devices != nil {
			for i := 0; i < n; i++ {
				if r.down(i) {
					continue // radio off: no sharing, no comm energy
				}
				acct.AddCommunication(i, cfg.Devices[i].TrainRoundWh(cfg.Workload)*energy.CommShareOfTraining)
			}
		}
		if cfg.DropDeadNodes {
			result.TotalDroppedSends += m.DroppedSends
			probe.DroppedSends(t, m.DroppedSends)
		}
		if cfg.Harvest != nil {
			probe.PhaseStart(obs.PhaseBattery)
			// Close the battery round: idle+comm draw, then ambient harvest.
			// The fleet's per-node ledger is authoritative; the accountant
			// mirrors it so energy reports pair harvested with consumed.
			// On drop rounds dead nodes owe idle draw only — their radio
			// never powered up.
			for i, wh := range cfg.Harvest.EndRoundLive(t, r.dead) {
				acct.AddHarvest(i, wh)
				cumHarvestWh += wh
			}
			// Learning forecasters observe what the source delivered this
			// round (stored + wasted), serially, after the battery update.
			if fob, ok := cfg.Forecast.(harvest.ForecastObserver); ok {
				fob.Observe(t, cfg.Harvest.RoundArrivedWh())
			}
			// One pass over the batteries yields mean/min/depleted and feeds
			// the quantile sketch; the full per-node snapshot (an O(nodes)
			// allocation every round) is opt-in via TrackSoC.
			socSketch.Reset()
			m.MeanSoC, m.MinSoC, m.Depleted = cfg.Harvest.SoCStats(observeSoC)
			m.SoCP50 = socSketch.Quantile(0.50)
			m.SoCP90 = socSketch.Quantile(0.90)
			m.SoCP99 = socSketch.Quantile(0.99)
			m.CumHarvestWh = cumHarvestWh
			m.CumWastedWh = cfg.Harvest.WastedWh()
			if cfg.TrackSoC {
				m.SoCs = cfg.Harvest.SoCs()
			}
			probe.PhaseEnd(t, obs.PhaseBattery)
		}

		// Phase 3: evaluation.
		if shouldEval(t, cfg.Rounds, cfg.EvalEvery) {
			probe.PhaseStart(obs.PhaseEval)
			sc := evaluator.Evaluate()
			m.Evaluated, m.MeanAcc, m.StdAcc, m.Consensus, m.GlobalAcc = true, sc.Mean, sc.Std, sc.Consensus, sc.Global
			result.FinalNodeAccs = evaluator.Accs
			result.FinalMeanAcc, result.FinalStdAcc, result.FinalGlobalAcc = m.MeanAcc, m.StdAcc, m.GlobalAcc
			probe.PhaseEnd(t, obs.PhaseEval)
			probe.Eval(t, m.MeanAcc, m.StdAcc)
		}
		m.CumTrainWh = acct.TotalTrainingWh()
		m.CumCommWh = acct.TotalCommunicationWh()
		result.History = append(result.History, m)
		if probe.Enabled() {
			stats := obs.RoundStats{Trained: m.TrainedCount, Live: m.LiveCount, Depleted: m.Depleted}
			if cfg.Harvest != nil {
				stats.HasSoC = true
				stats.MeanSoC, stats.SoCP50, stats.SoCP90, stats.SoCP99 = m.MeanSoC, m.SoCP50, m.SoCP90, m.SoCP99
				// This round's energy ledger: arrived harvest (pre-clamp, so
				// stored + wasted), drain and overflow as deltas of the
				// cumulative ledgers, and the closing total charge. Together
				// they satisfy harvest − consumed − wasted = ΔCharge, the
				// invariant obs/analyze audits.
				consumed, wasted := cfg.Harvest.ConsumedWh(), cfg.Harvest.WastedWh()
				stats.HasEnergy = true
				for _, wh := range cfg.Harvest.RoundArrivedWh() {
					stats.HarvestWh += wh
				}
				stats.ConsumedWh = consumed - prevConsumedWh
				stats.WastedWh = wasted - prevWastedWh
				stats.ChargeWh = cfg.Harvest.TotalChargeWh()
				prevConsumedWh, prevWastedWh = consumed, wasted
			}
			probe.RoundEnd(t, stats)
		}
	}
	result.TotalTrainWh = acct.TotalTrainingWh()
	result.TotalCommWh = acct.TotalCommunicationWh()
	if cfg.Harvest != nil {
		result.TotalHarvestWh = cumHarvestWh
		result.TotalWastedWh = cfg.Harvest.WastedWh()
		result.FinalSoC = cfg.Harvest.SoCs()
	}
	if cfg.EvalGlobalModel || cfg.TrackConsensus {
		result.FinalGlobalParams = tensor.NewVector(paramCount)
		tensor.MeanVectorTo(result.FinalGlobalParams, models)
	}
	probe.RunEnd(cfg.Rounds, trainedTotal)
	return result, nil
}

// buildManifest derives the run's content-addressable identity from every
// experiment-defining config field. Anything that changes the computed bits
// must be hashed here; anything that cannot (GOMAXPROCS, telemetry) must not
// be, or equivalent runs stop sharing a cache key.
func buildManifest(cfg *Config, spec *learner.Spec, paramCount int) obs.RunManifest {
	b := spec.Manifest("sim", cfg.Rounds, paramCount).
		Setf("aggregation", "%d", cfg.Algo.Aggregation).
		Setf("eval_every", "%d", cfg.EvalEvery).
		Setf("eval_global", "%t", cfg.EvalGlobalModel).
		Setf("drop_dead", "%t", cfg.DropDeadNodes)
	if cfg.Harvest != nil {
		b.Set("trace", cfg.Harvest.TraceName())
		// The battery spec is experiment identity too: capacity, cutoff,
		// idle draw, and starting charge decide who trains and who browns
		// out. Fleet-level sums are a compact fingerprint — per-node values
		// follow deterministically from the device mix and options — and
		// without them runs differing only in (say) -cutoff would collide
		// on one cache key.
		var capWh, cutWh, ovWh float64
		for i := 0; i < cfg.Harvest.Nodes(); i++ {
			capWh += cfg.Harvest.CapacityWh(i)
			cutWh += cfg.Harvest.CutoffWh(i)
			ovWh += cfg.Harvest.OverheadWh(i)
		}
		b.Setf("fleet_capacity_wh", "%g", capWh).
			Setf("fleet_cutoff_wh", "%g", cutWh).
			Setf("fleet_overhead_wh", "%g", ovWh).
			Setf("fleet_initial_wh", "%g", cfg.Harvest.TotalChargeWh())
	}
	if cfg.Forecast != nil {
		b.Set("forecast", cfg.Forecast.Name()).
			Setf("forecast_horizon", "%d", cfg.ForecastHorizon)
	}
	if cfg.Rejoin != nil {
		b.Set("rejoin", cfg.Rejoin.Name())
	}
	return b.Build()
}

func shouldEval(t, rounds, every int) bool {
	return t == rounds-1 || (every > 0 && (t+1)%every == 0)
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
