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
// A node's model vector is its only model-sized state: a window of one
// vector (learner.NewNodes) that the Engine keeps for its next run. It is
// written in phase 1 and in phase 2's mix, where a block of it is written
// only once every average that reads the block is summed, so its neighbors
// may read it in place. The networks belong to the Engine, one per worker:
// a worker Uses a node's vector to train or score it. See
// docs/ARCHITECTURE.md for who may write which vector when.
//
// When a harvest fleet is attached (Config.Harvest), every round also closes
// with a battery update — idle and communication draw, then ambient energy
// harvest — and the round's record carries the fleet's state of charge and
// energy ledger.
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
	"strconv"

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

	// Model and training hyperparameters (Table 1). ModelFactory builds
	// one of nn's models, nn.LogisticRegression or nn.MLP, on the r it is
	// given. It is called once per worker with node -1; Network.Init draws
	// node i's weights from its model stream, the bits
	// ModelFactory(i, r_i) would draw.
	ModelFactory func(node int, r *rng.RNG) *nn.Network
	LR           float64
	BatchSize    int
	LocalSteps   int

	// Data.
	Partition dataset.Partition
	Test      *dataset.Dataset

	// Evaluation cadence: evaluate after every EvalEvery rounds, and always
	// after each of the last core.Window(Algo.Schedule) rounds, the window a
	// readout averages (the final round only without sync rounds). 0 means
	// the window only. EvalSubsample bounds the test samples every
	// evaluation scores, one sample drawn at set-up (0 = all).
	EvalEvery     int
	EvalSubsample int
	// EvalGlobalModel also evaluates the average of all node models (the
	// all-reduce consensus model of Figure 1) and records the consensus
	// distance, both read off the one fleet mean, every evaluation.
	EvalGlobalModel bool

	// Energy model: per-node devices (use energy.AssignDevices) and the
	// per-round workload. Both optional; when absent energy is not tracked.
	Devices  []energy.Device
	Workload energy.Workload

	// Harvest optionally attaches a battery/harvesting fleet
	// (internal/harvest) covering Graph.N nodes. Training drains batteries
	// only through the harvest policies' TryTrain — pair the fleet with a
	// charge-aware Algo.Policy — while the engine closes every round with
	// EndRound: idle and communication draw, then ambient harvest.
	// State-of-charge statistics and the energy ledger land in RoundMetrics;
	// the per-node charge is in Result.FinalSoC after the last round.
	Harvest *harvest.Fleet

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
	// brown-out/revival events, dropped-send counts, evaluations, and a
	// round_end derived from each round's RoundMetrics into the probe's
	// sink. A nil probe is the off state and costs one nil check per
	// emission site. Telemetry is read-only and RNG-silent: a telemetry-on
	// run produces the same History and model state, bit for bit, as the
	// same run with telemetry off (pinned by test).
	Probe *obs.Probe

	Seed uint64

	// seeModels, when set, is shown the nodes' model vectors as soon as
	// they are drawn; the in-package tests read runs' models through it.
	seeModels func(models []tensor.Vector)
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

	// Battery state and energy ledger (Config.Harvest runs only, zero
	// otherwise). The ledger satisfies the fleet's energy-causality identity
	// charge(t-1) + ArrivedWh - Δconsumed - Δwasted = ChargeWh, where the
	// deltas are against the previous round's cumulative fields (zero before
	// round 0) and charge(-1) is the fleet's initial charge.
	MeanSoC       float64 // fleet-average state of charge after the round
	MinSoC        float64 // lowest state of charge in the fleet
	Depleted      int     // nodes at or below their brown-out cutoff
	CumHarvestWh  float64 // cumulative stored ambient energy
	ArrivedWh     float64 // energy that arrived this round, stored plus wasted
	CumConsumedWh float64 // cumulative training, communication and idle drain
	CumWastedWh   float64 // cumulative harvest that arrived on full batteries
	ChargeWh      float64 // the fleet's total charge after the round
	// SoCP50/P90/P99 are the fleet's state-of-charge percentiles after the
	// round, streamed through a fixed-bin quantile sketch (internal/obs):
	// exact to within one sketch bin (1/256) without materializing a
	// per-node slice.
	SoCP50, SoCP90, SoCP99 float64

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
	// FinalGlobalParams is the fleet mean the last evaluation read when
	// EvalGlobalModel is set (nil otherwise), the deployable consensus
	// model: Network.Use runs a network on it.
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

// Engine is the round engine. A run is what its phase bodies share: the
// node slab and the current round's view, which the loop writes between
// barriers and the bodies only read. The bodies are methods, run by
// par.ForOn as method expressions, so no phase makes a closure; each writes
// node-i state only.
//
// Run keeps every buffer of a run that its Result does not keep for the
// next run, which re-derives or clears each as a fresh run would and grows
// one only when it needs more: after the first, a run of the same shape
// allocates its result and the network that draws its models, not its
// node state. The zero Engine is ready to run; an Engine runs one run at a
// time, and a Result never aliases it. See "What a run owns" in
// docs/ARCHITECTURE.md.
type Engine struct {
	cfg  Config
	spec learner.Spec
	ln   learner.Nodes
	eval learner.Evaluator
	// trained[i] counts the rounds node i trained (Result.TrainedRounds):
	// the budget it has spent, which its RoundContext.Trained carries.
	// trainWh and commWh are the per-node Eq. 3 ledger (nil without
	// Devices); node i writes only index i.
	trained         []int
	trainWh, commWh []float64
	// collect lists node i's operands in rows[i] (none: it holds its model);
	// each of the cap(ln.Nets) mix workers averages through its own share
	// of sums and ops. mean is the one fleet mean (nil if unread), which
	// the Result keeps.
	rows []nn.MixRow
	sums tensor.Vector
	ops  []tensor.Vector
	mean tensor.Vector

	ctx core.RoundContext // Round and Kind are the current round's
	// dead is the live mask on rounds where the topology actually loses
	// edges — collect reads no dead operand and weights is the matrix
	// rebuilt over the live subgraph — and nil on all others (configured
	// Weights).
	dead    []bool
	weights *graph.Weights
	// lastLive[i] is the last round node i was live, -1 before round 0
	// (every node counts as live before the run); it is read only with a
	// live-set source. nbrMean is the rejoin rule's neighbor mean
	// (Config.Rejoin).
	lastLive []int
	nbrMean  tensor.Vector

	// The storage the slices above are windows of, kept for the next run:
	// the ledger and weight floats (the ledger rows, every row's W weights,
	// the renormalized matrix), every row's operands and then each mix
	// worker's, and the live-set scan's queue beside lastLive.
	floats tensor.Vector
	vecs   []tensor.Vector
	ints   []int
	seen   []bool        // the live-set scan's marks
	live   graph.Weights // drop rounds renormalize into it
	soc    *obs.Sketch   // the SoC quantile sketch, reset per round
}

// down reports that node i is browned out on a round that drops dead nodes:
// unpowered, it neither trains nor mixes, no neighbor reads its model, and
// it holds that model (W's row is the identity) until it recharges past the
// cutoff.
func (r *Engine) down(i int) bool { return r.dead != nil && !r.dead[i] }

// alive reads a live mask, where nil means every node is live.
func alive(live []bool, i int) bool { return live == nil || live[i] }

// transitions is the one pass over lastLive after round t's live-set
// snapshot: it emits the brown-outs and revivals, rejoins each revival (with
// staleness t-1-lastLive[i]) and counts the sends live nodes owe dead
// neighbors on drop rounds. lastLive moves to t only after the pass, so a
// node that revives this round is never read as a live neighbor.
func (r *Engine) transitions(live []bool, m *RoundMetrics) {
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
func (r *Engine) rejoin(i, stale int, live []bool) bool {
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
func (r *Engine) train(i int) {
	cfg, ctx := &r.cfg, r.ctx
	ctx.Trained = r.trained[i]
	if ctx.Kind != core.RoundTrain || r.down(i) || !r.spec.Participate(&r.ln, i, ctx, ctx.Round) {
		return
	}
	r.spec.Train(&r.ln, i)
	r.trained[i]++
	if cfg.Devices != nil {
		r.trainWh[i] += cfg.Devices[i].TrainRoundWh(cfg.Workload)
	}
}

// collect is the first half of phase 2: it lists the operands of node i's
// W-row average (Algorithm 1, line 8) — the renormalized row on drop rounds
// — own term first, then each live neighbor's model vector, read in place,
// in adjacency order. A down node lists none: it holds its model.
func (r *Engine) collect(i int) {
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

// mix is the second half: worker w, of as many as there are networks,
// averages its share of the elements of every model, in place (nn.Mix).
func (r *Engine) mix(w int) {
	k := cap(r.ln.Nets)
	p, s, o := r.ln.ParamCount, len(r.sums)/k, len(r.ops)/k
	nn.Mix(r.rows, w*p/k, (w+1)*p/k, r.sums[w*s:(w+1)*s], r.ops[w*o:(w+1)*o])
}

// adoptMean is AggGlobal's phase 2: node i takes the fleet mean.
func (r *Engine) adoptMean(i int) { copy(r.ln.Params[i], r.mean) }

// Run executes the experiment on an Engine of its own.
func Run(c Config) (*Result, error) { return new(Engine).Run(c) }

// Run executes the experiment. Everything a round needs is allocated before
// the first one, and only what r does not already hold; see "Allocation
// discipline" in docs/ARCHITECTURE.md.
func (r *Engine) Run(c Config) (*Result, error) {
	r.cfg = c
	cfg := &r.cfg
	r.spec = cfg.spec()
	if err := cfg.validate(&r.spec); err != nil {
		return nil, err
	}
	g, n := cfg.Graph, cfg.Graph.N
	r.ln = r.spec.NewNodes(r.ln, 0x1417)
	workers := cap(r.ln.Nets)
	models, paramCount := r.ln.Params, r.ln.ParamCount
	if cfg.seeModels != nil {
		cfg.seeModels(models)
	}

	maxDeg, edges := 0, 0
	for i := 0; i < n; i++ {
		maxDeg, edges = max(maxDeg, g.Degree(i)), edges+g.Degree(i)
	}

	// Node state is the learner's nodes plus every per-node row as a window
	// of a slab the engine keeps: of ints, of vectors, of weights and ledger
	// floats. The result keeps its trained rounds and one float slab: the
	// nodes' accuracies, their final charges and the fleet mean when a run
	// reads it. Each worker has a network and a mix scratch sized to the
	// longest block of its share (p/workers rounded down or up); that and
	// every model-sized vector stay allocations of their own, as a large
	// slab rounds up to whole pages.
	haveLiveSource := cfg.Liveness != nil || cfg.Harvest != nil
	needMean := cfg.EvalGlobalModel || cfg.Algo.Aggregation == core.AggGlobal
	block := max(nn.MixBlockLen(paramCount/workers), nn.MixBlockLen((paramCount+workers-1)/workers))
	r.floats = grow(r.floats, 2*n*b2i(cfg.Devices != nil)+(edges+n)*(1+b2i(cfg.DropDeadNodes)))
	floats := r.floats
	kept := tensor.NewVector(n + n*b2i(cfg.Harvest != nil) + paramCount*b2i(needMean))
	cut := func(slab *tensor.Vector, k int) tensor.Vector {
		v := (*slab)[:k:k]
		*slab = (*slab)[k:]
		return v
	}
	result := &Result{TrainedRounds: make([]int, n), History: make([]RoundMetrics, 0, cfg.Rounds)}
	r.trained, r.trainWh, r.commWh = result.TrainedRounds, nil, nil
	if cfg.Devices != nil {
		r.trainWh, r.commWh = cut(&floats, n), cut(&floats, n)
		clear(r.trainWh)
		clear(r.commWh)
	}
	r.rows, r.vecs = grow(r.rows, n), grow(r.vecs, edges+n+workers*(maxDeg+1))
	vecs, ws := r.vecs, cut(&floats, edges+n)
	for i := 0; i < n; i++ {
		d := g.Degree(i)
		r.rows[i] = nn.MixRow{X: models[i], W: ws[: 0 : d+1], V: vecs[: 0 : d+1]}
		vecs, ws = vecs[d+1:], ws[d+1:]
	}
	r.sums, r.ops = grow(r.sums, workers*n*block), vecs
	if cfg.DropDeadNodes {
		r.live.Self, r.live.Nbr = cut(&floats, n), grow(r.live.Nbr, n)
		for i := range n {
			r.live.Nbr[i] = cut(&floats, g.Degree(i))
		}
	}
	accs := cut(&kept, n)
	var finalSoC tensor.Vector
	if cfg.Harvest != nil {
		finalSoC = cut(&kept, n)
	}
	r.mean = nil
	if needMean {
		r.mean = cut(&kept, paramCount)
	}
	r.eval = r.spec.NewEvaluator(r.eval, r.ln, accs, r.mean, cfg.EvalGlobalModel)
	cumHarvestWh, trainedTotal := 0.0, 0

	// Every run carries its content-addressable identity; the probe (when
	// attached) additionally streams it on run_start. Telemetry below is
	// strictly read-only and RNG-silent: probe calls observe engine state
	// and wall clocks, never stochastic or model state.
	result.Manifest = Manifest(cfg, paramCount, cfg.Partition.Fingerprint(), cfg.Test.Fingerprint()).Build()
	// Harvest-coupled runs stamp the fleet's initial total charge on
	// run_start: the baseline the energy-conservation audit (obs/analyze)
	// integrates the round_end ledgers from.
	probe, chargeWh := cfg.Probe, 0.0
	if cfg.Harvest != nil {
		chargeWh = cfg.Harvest.TotalChargeWh()
	}
	probe.RunStart(&result.Manifest, chargeWh)

	// The SoC quantile sketch streams per-round charge percentiles without
	// materializing a per-node slice; allocated once, reset per round.
	if cfg.Harvest != nil && r.soc == nil {
		r.soc = obs.NewSoCSketch()
	}
	// Scratch for the live-set phase's component scan, and the lastLive
	// record, which shares the scan queue's slab.
	var queue []int
	if haveLiveSource {
		r.seen, r.ints = grow(r.seen, n), grow(r.ints, 2*n)
		queue, r.lastLive = r.ints[:0:n], r.ints[n:]
		for i := range r.lastLive {
			r.lastLive[i] = -1
		}
	}
	if cfg.Rejoin != nil {
		r.nbrMean = grow(r.nbrMean, paramCount)
	}

	r.ctx = core.RoundContext{Horizon: cfg.Rounds, Schedule: cfg.Algo.Schedule}
	window := core.Window(cfg.Algo.Schedule)
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
			m.LiveComponents = g.LiveComponentsScratch(live, r.seen, queue)
		}
		// A round drops dead nodes only when some node is in fact dead (see
		// run.dead); all-live rounds keep the configured Weights.
		r.dead, r.weights = nil, cfg.Weights
		if cfg.DropDeadNodes && live != nil && m.LiveCount < n {
			r.dead, r.weights = live, &r.live
			graph.RenormalizeLiveTo(&r.live, g, live)
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
		par.ForOn(n, 0, r, (*Engine).train)
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
			r.eval.FleetMean()
			par.ForOn(n, 0, r, (*Engine).adoptMean)
		default:
			par.ForOn(n, 0, r, (*Engine).collect)
			par.ForOn(workers, 0, r, (*Engine).mix)
		}
		probe.PhaseEnd(t, obs.PhaseAggregate)
		if cfg.Devices != nil {
			for i := 0; i < n; i++ {
				if r.down(i) {
					continue // radio off: no sharing, no comm energy
				}
				r.commWh[i] += cfg.Devices[i].TrainRoundWh(cfg.Workload) * energy.CommShareOfTraining
			}
		}
		if cfg.DropDeadNodes {
			result.TotalDroppedSends += m.DroppedSends
			probe.DroppedSends(t, m.DroppedSends)
		}
		if cfg.Harvest != nil {
			probe.PhaseStart(obs.PhaseBattery)
			// Close the battery round: idle+comm draw, then ambient harvest.
			// On drop rounds dead nodes owe idle draw only — their radio
			// never powered up.
			for _, wh := range cfg.Harvest.EndRoundLive(t, r.dead) {
				cumHarvestWh += wh
			}
			// Learning forecasters observe what the source delivered this
			// round (stored + wasted), serially, after the battery update.
			arrived := cfg.Harvest.RoundArrivedWh()
			if fob, ok := cfg.Forecast.(harvest.ForecastObserver); ok {
				fob.Observe(t, arrived)
			}
			// One pass over the batteries yields mean/min/depleted and feeds
			// the quantile sketch, without a per-node snapshot.
			r.soc.Reset()
			m.MeanSoC, m.MinSoC, m.Depleted = cfg.Harvest.SoCStats(r.soc.Observe)
			m.SoCP50 = r.soc.Quantile(0.50)
			m.SoCP90 = r.soc.Quantile(0.90)
			m.SoCP99 = r.soc.Quantile(0.99)
			m.CumHarvestWh = cumHarvestWh
			for _, wh := range arrived {
				m.ArrivedWh += wh
			}
			m.CumConsumedWh, m.CumWastedWh = cfg.Harvest.ConsumedWh(), cfg.Harvest.WastedWh()
			m.ChargeWh = cfg.Harvest.TotalChargeWh()
			probe.PhaseEnd(t, obs.PhaseBattery)
		}

		// Phase 3: evaluation.
		if t >= cfg.Rounds-window || (cfg.EvalEvery > 0 && (t+1)%cfg.EvalEvery == 0) {
			probe.PhaseStart(obs.PhaseEval)
			sc := r.eval.Evaluate()
			m.Evaluated, m.MeanAcc, m.StdAcc, m.Consensus, m.GlobalAcc = true, sc.Mean, sc.Std, sc.Consensus, sc.Global
			result.FinalNodeAccs = accs
			result.FinalMeanAcc, result.FinalStdAcc, result.FinalGlobalAcc = m.MeanAcc, m.StdAcc, m.GlobalAcc
			probe.PhaseEnd(t, obs.PhaseEval)
			probe.Eval(t, m.MeanAcc, m.StdAcc)
		}
		m.CumTrainWh, m.CumCommWh = sum(r.trainWh), sum(r.commWh)
		result.History = append(result.History, m)
		probe.RoundEnd(roundEnd(result.History))
	}
	result.TotalTrainWh, result.TotalCommWh = sum(r.trainWh), sum(r.commWh)
	if cfg.Harvest != nil {
		result.TotalHarvestWh = cumHarvestWh
		result.TotalWastedWh = cfg.Harvest.WastedWh()
		result.FinalSoC = finalSoC
		for i := range result.FinalSoC {
			result.FinalSoC[i] = cfg.Harvest.SoC(i)
		}
	}
	if cfg.EvalGlobalModel {
		result.FinalGlobalParams = r.mean // the last round always evaluates
	}
	probe.RunEnd(obs.Event{Steps: cfg.Rounds, Trained: trainedTotal})
	return result, nil
}

// roundEnd derives the round_end event of the last record in h. Drain and
// overflow stream as deltas of the cumulative ledgers against the record
// before it (a zero record before round 0), so the event's harvest −
// consumed − wasted = ΔCharge, the identity obs/analyze audits.
func roundEnd(h []RoundMetrics) obs.Event {
	m, prev := &h[len(h)-1], &RoundMetrics{}
	if len(h) > 1 {
		prev = &h[len(h)-2]
	}
	return obs.Event{
		Round: m.Round, Trained: m.TrainedCount, Live: m.LiveCount, Depleted: m.Depleted,
		MeanSoC: m.MeanSoC, SoCP50: m.SoCP50, SoCP90: m.SoCP90, SoCP99: m.SoCP99,
		HarvestWh: m.ArrivedWh, ConsumedWh: m.CumConsumedWh - prev.CumConsumedWh,
		WastedWh: m.CumWastedWh - prev.CumWastedWh, ChargeWh: m.ChargeWh,
	}
}

// Manifest is the builder Run stamps cfg's run with, for a model of
// paramCount parameters and data of the fingerprints partition and test:
// it reads no data, so a run is keyed with none built. What changes the
// bits must be hashed here, and what cannot (GOMAXPROCS, telemetry) not.
func Manifest(cfg *Config, paramCount int, partition, test uint64) *obs.ManifestBuilder {
	s := cfg.spec()
	b := s.Manifest("sim", cfg.Rounds, paramCount, partition, test).
		SetInt("aggregation", int(cfg.Algo.Aggregation)).
		SetInt("eval_every", cfg.EvalEvery).
		Set("eval_global", strconv.FormatBool(cfg.EvalGlobalModel)).
		Set("drop_dead", strconv.FormatBool(cfg.DropDeadNodes))
	if cfg.Harvest != nil {
		// The battery spec is experiment identity too.
		b.Set("trace", cfg.Harvest.TraceName())
		cfg.Harvest.SetManifest(b)
	}
	if cfg.Rejoin != nil {
		b.Set("rejoin", cfg.Rejoin.Name())
	}
	return b
}

// sum adds vs in index order: the Eq. 3 totals are summed node by node.
func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// grow is s with n elements, in s's array when it holds them; the elements
// are s's, not cleared.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// b2i is 1 for true and 0 for false: how many of an optional row a slab holds.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
