package experiments

import (
	"cmp"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The harvest-aware Γ-schedule search reruns the paper's Figure 3 grid
// search — best (Γtrain, Γsync) over a 4x4 grid — against live harvesting
// fleets instead of a fixed energy budget. The right duty cycle depends on
// the arrival process: under a fixed budget every unscheduled train round
// saves energy for later, while under ambient harvest a too-timid schedule
// lets energy arrive on full batteries and be wasted. Each regime therefore
// selects its own schedule; the fixed-budget baseline recovers the paper's
// setting as the zero-harvest special case.
//
// Both searches — Figure3's and TableGammaHarvest's — run on the shared
// grid runner below: cells are independent simulations fanned out across
// workers (internal/par) with each result written into its preallocated
// slot, so tables are bit-identical to the serial path at any GOMAXPROCS.

// gammaGridMax is the per-axis extent of the search: Γtrain and Γsync each
// range over 1..gammaGridMax, matching Figure 3.
const gammaGridMax = 4

// forEachGammaCell evaluates all gammaGridMax² schedule cells with the
// given per-cell body, fanning cells out across workers. Each cell writes
// only its own preallocated slot and errors land in per-cell slots, so
// the returned grid — layout grid[gs-1][gt-1], like Figure3Result — is
// identical at any worker count, and the reported error is always the
// lowest-indexed cell's. This is the uncached entry point; keyed grids go
// through gammaCells with a sweep.Runner.
func forEachGammaCell[C any](run func(gt, gs int) (C, error)) ([][]C, error) {
	return gammaCells(nil, new(gammaKeys), run)
}

// gammaKeys are one grid's cell keys, keys[gs-1][gt-1]; a zero key marks
// its cell uncacheable, so the zero value is an unkeyed grid.
type gammaKeys [gammaGridMax][gammaGridMax]sweep.CellKey

// gammaCells executes the Γ grid through the sweep scheduler: cells with
// a key are served from the runner's cache when present and computed
// (then cached) otherwise; a nil runner or zero keys degrade to the plain
// pool fan-out. Cached and computed cells are interchangeable
// bit-for-bit (see sweep.Grid), so a grid's values are independent of
// which cells hit.
func gammaCells[C any](r *sweep.Runner, keys *gammaKeys, run func(gt, gs int) (C, error)) ([][]C, error) {
	cells, err := sweep.Grid(r, gammaGridMax*gammaGridMax,
		func(k int) sweep.CellKey { return keys[k/gammaGridMax][k%gammaGridMax] },
		func(k int) (C, error) { return run(k%gammaGridMax+1, k/gammaGridMax+1) })
	if err != nil {
		return nil, err
	}
	grid := make([][]C, gammaGridMax)
	for gs := range grid {
		grid[gs] = cells[gs*gammaGridMax : (gs+1)*gammaGridMax]
	}
	return grid, nil
}

// bestGammaCell selects the accuracy-maximal cell, breaking ties toward
// lower energy (the paper's rule). The running best is seeded from the
// first real cell, never from C's zero value: seeding from the zero value
// made an all-zero-accuracy grid (tiny horizons) report the impossible
// schedule Γtrain=0, Γsync=0 at 0 Wh as "best".
func bestGammaCell[C any](grid [][]C, acc, energyWh func(C) float64) C {
	best := grid[0][0]
	for gs := range grid {
		for gt := range grid[gs] {
			if gs == 0 && gt == 0 {
				continue
			}
			c := grid[gs][gt]
			if acc(c) > acc(best) || (acc(c) == acc(best) && energyWh(c) < energyWh(best)) {
				best = c
			}
		}
	}
	return best
}

// GammaRegime is one harvest regime of the Γ-schedule search: a named
// fresh-trace constructor. The constructor is called once per grid cell —
// stateful traces (Markov chains) must be built fresh (or Reset) per cell
// so no chain state leaks between cells; sim.Run additionally rejects any
// fleet consumed by a prior run.
type GammaRegime struct {
	Name string
	// Trace builds a fresh trace for one cell. meanTrainWh is the fleet's
	// mean per-round training cost, the natural unit for trace magnitudes.
	Trace func(o Options, meanTrainWh float64) (harvest.Trace, error)
}

// GammaGridRegimes returns the standard regimes of the harvest-aware
// search: the fixed-budget baseline (zero harvest — the paper's Figure 3
// setting expressed as a dark fleet), the diurnal/solar regime at two
// amplitudes, and the bursty Markov regime at two duty cycles. Sweeping
// amplitude and duty cycle is the point: the selected Γ should move with
// the arrival process, not just with its presence.
func GammaGridRegimes(o Options) []GammaRegime {
	diurnal := func(amp float64) func(Options, float64) (harvest.Trace, error) {
		return func(o Options, mean float64) (harvest.Trace, error) {
			return harvest.NewDiurnal(amp*mean, diurnalPeriod(o.Rounds), harvest.LongitudePhase(o.Nodes))
		}
	}
	markov := func(pOnOff, pOffOn float64) func(Options, float64) (harvest.Trace, error) {
		return func(o Options, mean float64) (harvest.Trace, error) {
			return harvest.NewMarkovOnOff(o.Nodes, 1.2*mean, pOnOff, pOffOn, o.Seed)
		}
	}
	return []GammaRegime{
		{"fixed-budget", func(Options, float64) (harvest.Trace, error) {
			return harvest.Constant{Wh: 0}, nil
		}},
		{"diurnal-lo", diurnal(0.7)},      // dim sun: harvest binds hard
		{"diurnal-hi", diurnal(1.6)},      // bright sun: waste, not supply, binds
		{"markov-lo", markov(0.45, 0.15)}, // duty cycle 0.25: long off spells
		{"markov-hi", markov(0.15, 0.45)}, // duty cycle 0.75: mostly on
	}
}

// gammaGridFleetOptions puts every regime's fleet on the same supercap
// scale: capacity 12 training rounds, three quarters charged at launch.
// Under the fixed-budget regime that initial charge is the entire budget.
func gammaGridFleetOptions() harvest.Options {
	return harvest.Options{CapacityRounds: 12, InitialSoC: 0.75}
}

// gammaGridMinSoC is the shared charge-aware policy threshold. One policy
// across all regimes keeps the comparison clean: any difference in the
// selected schedule is attributable to the arrival process.
const gammaGridMinSoC = 0.2

// GammaHarvestCell is one evaluated (Γtrain, Γsync) point of the
// harvest-coupled search. All fields are comparable, so whole rows can be
// compared with == in reproducibility tests.
type GammaHarvestCell struct {
	GammaTrain, GammaSync int
	FinalAcc              float64 // mean final validation accuracy, %
	Participation         float64 // trained rounds / scheduled train slots, %
	HarvestedWh           float64 // stored ambient energy (sim scale)
	ConsumedWh            float64 // battery drain: train + comm + idle (sim scale)
	WastedWh              float64 // harvest that arrived on full batteries
	// WastedFrac is WastedWh over all arrived energy (stored + wasted); 0
	// when nothing arrived (the fixed-budget regime), never NaN.
	WastedFrac float64
}

// GammaGridResult is the full 4x4 search under one harvest regime.
type GammaGridResult struct {
	Regime string
	Trace  string
	Grid   [][]GammaHarvestCell // Grid[gs-1][gt-1]
	Best   GammaHarvestCell
}

// GammaHarvestRow is one regime's summary line of TableGammaHarvest.
type GammaHarvestRow struct {
	Regime string
	Trace  string
	Best   GammaHarvestCell
}

// gammaWorld bundles the per-table immutable inputs shared by all cells:
// id is what a cache lookup needs; the topology and data are what only a
// computing cell needs, each built by the first cell that does. Everything
// is read-only during the grid fan-out.
type gammaWorld struct {
	o           Options
	degree      int
	regimes     []GammaRegime
	id          *gridIdentity
	meanTrainWh float64
	data        func() (*gammaData, error)

	topologyOnce sync.Once
	graph        *graph.Graph
	weights      *graph.Weights
	topologyErr  error
}

func (w *gammaWorld) buildTopology() error {
	w.topologyOnce.Do(func() { w.graph, w.weights, w.topologyErr = topologyFor(w.o.Nodes, w.degree, w.o.Seed) })
	return w.topologyErr
}

// gridIdentity is what a grid needs before any cell runs, a pure function
// of the completed Options, the degree and the build: a few KB with no
// graph or data behind them, safe to hand to every later job.
type gridIdentity struct {
	fingerprint uint64           // of the topology
	regimes     []regimeIdentity // parallel to the world's regimes
}

type regimeIdentity struct {
	trace string // the trace's report name
	keys  gammaKeys
}

// identityMemo keeps the identities of the keyed standard-regime grids one
// sweep server has served: a repeated or overlapping job builds no graph,
// samples no trace, hashes no manifest. The key is the whole completed
// Options less its three handles, plus the degree, so a field cellManifest
// hashes one day is already in it. A full memo is cleared (rederiving is
// one graph build and always right); a nil memo remembers nothing.
type identityMemo struct {
	mu       sync.Mutex
	m        map[identityKey]*gridIdentity
	capacity int // identityMemoCap, entries of about 6 KB, when zero
}

const identityMemoCap = 64

type identityKey struct {
	o      Options
	degree int
}

func (m *identityMemo) get(o Options, degree int) *gridIdentity {
	if m == nil || o.Sweep == nil {
		return nil
	}
	o.Sweep, o.Probe, o.Out = nil, nil, nil
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.m[identityKey{o, degree}]
}

func (m *identityMemo) put(o Options, degree int, id *gridIdentity) {
	if m == nil || o.Sweep == nil {
		return
	}
	o.Sweep, o.Probe, o.Out = nil, nil, nil
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil || len(m.m) >= cmp.Or(m.capacity, identityMemoCap) {
		m.m = map[identityKey]*gridIdentity{}
	}
	m.m[identityKey{o, degree}] = id
}

// gammaData is the half of the world a cache hit never touches. The
// first cell that actually computes builds it, under the pool; none of it
// depends on the topology, so the worlds of a degree grid share one.
type gammaData struct {
	part     dataset.Partition
	val      *dataset.Dataset
	devices  []energy.Device
	workload energy.Workload
}

func lazyGammaData(o Options) func() (*gammaData, error) {
	return sync.OnceValues(func() (*gammaData, error) {
		part, val, _, err := CIFARLikeData(o)
		return &gammaData{part, val, energy.AssignDevices(o.Nodes, energy.Devices()), energy.CIFAR10Workload()}, err
	})
}

// RunGammaGrid evaluates the 4x4 Γ grid under one harvest regime: every
// cell is a full harvest-coupled simulation on a fresh fleet, tuned on the
// validation split like Figure 3. Cells fan out across workers; the result
// is bit-identical at any GOMAXPROCS.
func RunGammaGrid(o Options, regime GammaRegime) (*GammaGridResult, error) {
	o = o.Defaults()
	w, err := newGammaWorld(o, 6, []GammaRegime{regime}, lazyGammaData(o), nil)
	if err != nil {
		return nil, err
	}
	return w.runRegime(0)
}

// newGammaWorld builds the shared world on a d-regular topology — d is
// the degree axis of the degree-coupled grid (TableDegreeGamma), 6 the
// paper's. The graph fingerprint in each cell manifest covers the degree,
// so cells from different degrees never collide in the cache while
// identical (degree, regime, Γ) cells from overlapping sweeps dedupe.
//
// A memo that holds the grid's identity supplies it and nothing is built
// (regimes must then be GammaGridRegimes(o)). Otherwise the graph is built
// for its fingerprint and kept for the cells, each regime's trace is
// sampled once for its report name, a keyed grid derives its keys, and the
// memo keeps the result — unless anything failed to build.
func newGammaWorld(o Options, degree int, regimes []GammaRegime, data func() (*gammaData, error), memo *identityMemo) (*gammaWorld, error) {
	w := &gammaWorld{
		o: o, degree: degree, regimes: regimes, data: data, id: memo.get(o, degree),
		meanTrainWh: energy.NetworkRoundWh(o.Nodes, energy.Devices(), energy.CIFAR10Workload()) / float64(o.Nodes),
	}
	if w.id != nil {
		return w, nil
	}
	if err := w.buildTopology(); err != nil {
		return nil, err
	}
	w.id = &gridIdentity{fingerprint: w.graph.Fingerprint(), regimes: make([]regimeIdentity, len(regimes))}
	for ri, regime := range regimes {
		sample, err := regime.Trace(o, w.meanTrainWh)
		if err != nil {
			return nil, fmt.Errorf("experiments: gamma grid %s: %w", regime.Name, err)
		}
		w.id.regimes[ri].trace = sample.Name()
		if o.Sweep != nil { // keyed cells cache under their content hash, an unkeyed grid runs as it always did
			w.id.regimes[ri].keys = w.regimeKeys(regime, sample.Name())
		}
	}
	memo.put(o, degree, w.id)
	return w, nil
}

// cellManifest is the content-addressable identity of one (regime, Γt,
// Γs) cell: every Options and regime field that changes the computed bits
// is hashed, so sweep.KeyFromManifest(cellManifest(...).Build()) is a safe
// cache key. Deliberately excluded, because they cannot change the bits:
// Probe/Out (telemetry is read-only), EvalEvery (cells always run with
// EvalEvery 0), and worker count (GOMAXPROCS is unhashed by design).
// regimeKeys builds it once per regime and re-sets only the two Γ fields.
func (w *gammaWorld) cellManifest(regime GammaRegime, traceName string, gt, gs int) *obs.ManifestBuilder {
	o := w.o
	fo := gammaGridFleetOptions()
	b := obs.NewManifest("gammacell", regime.Name, o.Seed).
		Scale(o.Nodes, o.Rounds).
		Set("regime", regime.Name).
		Set("trace", traceName).
		Setf("graph", "%016x", w.id.fingerprint).
		Setf("lr", "%g", o.LR).
		Setf("batch", "%d", o.BatchSize).
		Setf("local_steps", "%d", o.LocalSteps).
		Setf("train_per_node", "%d", o.TrainPerNode).
		Setf("test_samples", "%d", o.TestSamples).
		Setf("noise", "%g", o.Noise).
		Setf("eval_subsample", "%d", o.EvalSubsample).
		Set("policy", "soc-threshold").
		Setf("min_soc", "%g", gammaGridMinSoC).
		Setf("fleet_capacity_rounds", "%g", fo.CapacityRounds).
		Setf("fleet_initial_soc", "%g", fo.InitialSoC)
	return b.Set("gamma_train", strconv.Itoa(gt)).Set("gamma_sync", strconv.Itoa(gs))
}

// regimeKeys derives a regime's sixteen cell keys (keys[gs-1][gt-1]) off
// one builder, Γs re-set per row and Γt per cell; each equals
// KeyFromManifest(cellManifest(...).Build()).
func (w *gammaWorld) regimeKeys(regime GammaRegime, traceName string) (keys gammaKeys) {
	b := w.cellManifest(regime, traceName, 1, 1)
	for gs := range keys {
		b.Set("gamma_sync", strconv.Itoa(gs+1))
		for gt := range keys[gs] {
			keys[gs][gt] = sweep.KeyFromBuilder(b.Set("gamma_train", strconv.Itoa(gt+1)))
		}
	}
	return keys
}

func (w *gammaWorld) runRegime(ri int) (*GammaGridResult, error) {
	regime, id := w.regimes[ri], &w.id.regimes[ri]
	// One run_start/run_end pair per regime; each completed cell emits one
	// cell event. Cells fan out across workers, so cell events arrive in
	// wall-clock order — the probe's sinks are concurrency-safe, and the
	// grid itself stays bit-identical (preallocated slots, no probe inside
	// the per-cell sims).
	p := w.o.Probe
	if p.Enabled() {
		manifest := obs.NewManifest("gammagrid", regime.Name, w.o.Seed).
			Scale(w.o.Nodes, w.o.Rounds).
			Set("trace", id.trace).
			Setf("grid", "%dx%d", gammaGridMax, gammaGridMax).
			Setf("graph", "%016x", w.id.fingerprint).
			Setf("lr", "%g", w.o.LR).
			Setf("batch", "%d", w.o.BatchSize).
			Setf("local_steps", "%d", w.o.LocalSteps).
			Build()
		p.RunStart(&manifest)
	}
	grid, err := gammaCells(w.o.Sweep, &id.keys, func(gt, gs int) (GammaHarvestCell, error) {
		start := time.Now()
		cell, err := w.runCell(regime, gt, gs)
		if err == nil && p.Enabled() {
			p.Emit(obs.Event{
				Kind: obs.KindCell, Round: -1, Node: -1,
				Label:  fmt.Sprintf("%s Γt=%d Γs=%d", regime.Name, gt, gs),
				WallNs: time.Since(start).Nanoseconds(),
				Value:  cell.FinalAcc,
			})
		}
		return cell, err
	})
	if err != nil {
		return nil, err
	}
	p.RunEnd(gammaGridMax*gammaGridMax, 0)
	return &GammaGridResult{
		Regime: regime.Name,
		Trace:  id.trace,
		Grid:   grid,
		Best: bestGammaCell(grid,
			func(c GammaHarvestCell) float64 { return c.FinalAcc },
			func(c GammaHarvestCell) float64 { return c.ConsumedWh }),
	}, nil
}

func (w *gammaWorld) runCell(regime GammaRegime, gt, gs int) (GammaHarvestCell, error) {
	o := w.o
	fail := func(err error) (GammaHarvestCell, error) {
		return GammaHarvestCell{}, fmt.Errorf("experiments: gamma grid %s Γt=%d Γs=%d: %w", regime.Name, gt, gs, err)
	}
	d, err := w.data()
	if err != nil {
		return fail(err)
	}
	if err := w.buildTopology(); err != nil {
		return fail(err)
	}
	gamma, err := core.NewGamma(gt, gs)
	if err != nil {
		return fail(err)
	}
	trace, err := regime.Trace(o, w.meanTrainWh)
	if err != nil {
		return fail(err)
	}
	fleet, err := harvest.NewFleet(d.devices, d.workload, trace, gammaGridFleetOptions())
	if err != nil {
		return fail(err)
	}
	policy, err := harvest.NewSoCThreshold(gammaGridMinSoC)
	if err != nil {
		return fail(err)
	}
	res, err := sim.Run(sim.Config{
		Graph: w.graph, Weights: w.weights,
		Algo:         core.Algorithm{Label: regime.Name + "/" + gamma.Name(), Schedule: gamma, Policy: policy},
		Rounds:       o.Rounds,
		ModelFactory: modelFactory(32, 10),
		LR:           o.LR, BatchSize: o.BatchSize, LocalSteps: o.LocalSteps,
		Partition: d.part, Test: d.val, // tuned on the validation split
		EvalEvery: 0, EvalSubsample: o.EvalSubsample,
		Devices: d.devices, Workload: d.workload,
		Harvest: fleet,
		Seed:    o.Seed,
	})
	if err != nil {
		return fail(err)
	}
	trained := 0
	for _, tr := range res.TrainedRounds {
		trained += tr
	}
	slots := core.CountTrainRounds(gamma, o.Rounds)
	arrived := res.TotalHarvestWh + res.TotalWastedWh
	wastedFrac := 0.0
	if arrived > 0 {
		wastedFrac = res.TotalWastedWh / arrived
	}
	return GammaHarvestCell{
		GammaTrain: gt, GammaSync: gs,
		FinalAcc:      res.FinalMeanAcc * 100,
		Participation: 100 * float64(trained) / float64(o.Nodes*slots),
		HarvestedWh:   res.TotalHarvestWh,
		ConsumedWh:    fleet.ConsumedWh(),
		WastedWh:      res.TotalWastedWh,
		WastedFrac:    wastedFrac,
	}, nil
}

// TableGammaHarvest runs the harvest-aware Γ-schedule search over all
// standard regimes and renders one validation-accuracy heatmap per regime
// (best cell starred) plus the per-regime summary table. Rows are
// bit-identical at any GOMAXPROCS: cells write preallocated slots and all
// stochastic state is per-node.
func TableGammaHarvest(o Options) ([]GammaHarvestRow, error) {
	o = o.Defaults()
	grids, rows, err := gammaHarvest(o, nil)
	if err != nil {
		return nil, err
	}
	for _, res := range grids {
		res.Render(o.Out)
	}
	RenderGammaHarvestRows(o.Out, rows)
	return rows, nil
}

// gammaHarvest is TableGammaHarvest without the rendering — all the sweep
// handlers, which have no reader, run, and they alone bring a memo. o
// must be completed by Defaults.
func gammaHarvest(o Options, memo *identityMemo) (grids []*GammaGridResult, rows []GammaHarvestRow, err error) {
	regimes := GammaGridRegimes(o)
	w, err := newGammaWorld(o, 6, regimes, lazyGammaData(o), memo)
	if err != nil {
		return nil, nil, err
	}
	for ri := range regimes {
		res, err := w.runRegime(ri)
		if err != nil {
			return nil, nil, err
		}
		grids = append(grids, res)
		rows = append(rows, GammaHarvestRow{Regime: res.Regime, Trace: res.Trace, Best: res.Best})
	}
	return grids, rows, nil
}

// RenderGammaHarvestRows writes the per-regime summary table. It is
// shared by TableGammaHarvest and the gridsearch client, which receives
// rows from a sweep server and renders them locally.
func RenderGammaHarvestRows(out io.Writer, rows []GammaHarvestRow) {
	tb := report.NewTable("Harvest-aware Γ-schedule search: best (Γtrain, Γsync) per regime (sim scale)",
		"Regime", "Trace", "Γt", "Γs", "Acc %", "Particip %", "Harvested Wh", "Consumed Wh", "Wasted %")
	for _, r := range rows {
		tb.AddRowf("%s|%s|%d|%d|%.2f|%.1f|%.4f|%.4f|%.1f",
			r.Regime, r.Trace, r.Best.GammaTrain, r.Best.GammaSync, r.Best.FinalAcc,
			r.Best.Participation, r.Best.HarvestedWh, r.Best.ConsumedWh, 100*r.Best.WastedFrac)
	}
	tb.Render(out)
}

// Render writes the regime's validation-accuracy heatmap (best cell
// starred) and the best-cell summary line.
func (r *GammaGridResult) Render(out io.Writer) {
	rowNames := []string{"1", "2", "3", "4"}
	h := &report.Heatmap{
		Title:    fmt.Sprintf("Γ grid under %s (%s): validation accuracy [%%]", r.Regime, r.Trace),
		RowLabel: "Γs", ColLabel: "Γt",
		RowNames: rowNames, ColNames: rowNames,
		Cells:          make([][]float64, gammaGridMax),
		HigherIsBetter: true,
	}
	for gs := 0; gs < gammaGridMax; gs++ {
		h.Cells[gs] = make([]float64, gammaGridMax)
		for gt := 0; gt < gammaGridMax; gt++ {
			h.Cells[gs][gt] = r.Grid[gs][gt].FinalAcc
		}
	}
	h.SetMark(r.Best.GammaSync-1, r.Best.GammaTrain-1)
	h.Render(out)
	fmt.Fprintf(out, "best: Γtrain=%d Γsync=%d (%.1f%%, harvested %.4f Wh, consumed %.4f Wh, wasted %.1f%%)\n\n",
		r.Best.GammaTrain, r.Best.GammaSync, r.Best.FinalAcc,
		r.Best.HarvestedWh, r.Best.ConsumedWh, 100*r.Best.WastedFrac)
}
