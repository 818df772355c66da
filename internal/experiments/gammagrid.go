package experiments

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
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
// workers through the sweep scheduler, each result written into its
// preallocated slot, so tables are bit-identical to the serial path at any
// GOMAXPROCS and a keyed cell is served from the cache when present.

// gammaGridMax is the per-axis extent of the search: Γtrain and Γsync each
// range over 1..gammaGridMax, matching Figure 3.
const gammaGridMax = 4

// gammaKeys are one grid's cell keys, keys[gs-1][gt-1]; a zero key marks
// its cell uncacheable, so the zero value is an unkeyed grid.
type gammaKeys [gammaGridMax][gammaGridMax]sweep.CellKey

// gammaCells executes the Γ grid through the sweep scheduler: cells with
// a key are served from the runner's cache when present and computed
// (then cached) otherwise; a nil runner or zero keys degrade to the plain
// pool fan-out. The grid's layout is grid[gs-1][gt-1], like
// Figure3Result, and the reported error is the lowest-indexed cell's.
// Cached and computed cells are interchangeable
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

// GammaRegime is one harvest regime: a named fresh-trace constructor. The
// Γ-schedule search, the harvest scenarios and the brown-out family all
// name their regimes with it. The constructor is called once per run —
// stateful traces (Markov chains) must be built fresh (or Reset) per run
// so no chain state leaks between runs; sim.Run additionally rejects any
// fleet consumed by a prior run.
type GammaRegime struct {
	Name string
	// Trace builds a fresh trace for one run. meanTrainWh is the fleet's
	// mean per-round training cost, the natural unit for trace magnitudes.
	Trace func(o Options, meanTrainWh float64) (harvest.Trace, error)
}

// constantRegime, diurnalRegime and markovRegime are the three arrival
// processes every regime is one of, with magnitudes in units of a node's
// mean per-round training cost: a constant trickle, a solar fleet spread
// over longitudes, and a bursty on/off Markov source.
func constantRegime(name string, share float64) GammaRegime {
	return GammaRegime{name, func(_ Options, mean float64) (harvest.Trace, error) {
		return harvest.Constant{Wh: share * mean}, nil
	}}
}

func diurnalRegime(name string, peak float64) GammaRegime {
	return GammaRegime{name, func(o Options, mean float64) (harvest.Trace, error) {
		return harvest.NewDiurnal(peak*mean, diurnalPeriod(o.Rounds), harvest.LongitudePhase(o.Nodes))
	}}
}

func markovRegime(name string, on, pOnOff, pOffOn float64) GammaRegime {
	return GammaRegime{name, func(o Options, mean float64) (harvest.Trace, error) {
		return harvest.NewMarkovOnOff(o.Nodes, on*mean, pOnOff, pOffOn, o.Seed)
	}}
}

// GammaGridRegimes returns the standard regimes of the harvest-aware
// search: the fixed-budget baseline (zero harvest — the paper's Figure 3
// setting expressed as a dark fleet), the diurnal/solar regime at two
// amplitudes, and the bursty Markov regime at two duty cycles. Sweeping
// amplitude and duty cycle is the point: the selected Γ should move with
// the arrival process, not just with its presence.
func GammaGridRegimes(o Options) []GammaRegime { return slices.Clone(gammaGridRegimes) }

// gammaGridRegimes is built once: a regime reads its Options when it
// builds a trace, so the grids share the list read-only.
var gammaGridRegimes = []GammaRegime{
	constantRegime("fixed-budget", 0),
	diurnalRegime("diurnal-lo", 0.7),           // dim sun: harvest binds hard
	diurnalRegime("diurnal-hi", 1.6),           // bright sun: waste, not supply, binds
	markovRegime("markov-lo", 1.2, 0.45, 0.15), // duty cycle 0.25: long off spells
	markovRegime("markov-hi", 1.2, 0.15, 0.45), // duty cycle 0.75: mostly on
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
	FinalAcc              float64 // final validation accuracy, % (readout)
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
	// samples is how many validation samples an evaluation scored.
	samples int
}

// GammaHarvestRow is one regime's summary line of TableGammaHarvest.
type GammaHarvestRow struct {
	Regime string
	Trace  string
	Best   GammaHarvestCell
}

// gammaGrid is one world's Γ search under a list of regimes: id is what a
// cache lookup needs; the world's topology and data are what only a
// computing cell needs, each built by the first cell that does.
type gammaGrid struct {
	*World
	regimes []GammaRegime
	id      *gridIdentity
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
// one graph build and always right); a nil memo remembers nothing. It is
// kept only for the server's jobs (sweepjobs.go) that the frozen
// bench/sweepd.go runs.
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

func memoKey(o Options, degree int) identityKey {
	o.Sweep, o.Probe, o.Out = nil, nil, nil
	return identityKey{o, degree}
}

func (m *identityMemo) get(o Options, degree int) *gridIdentity {
	if m == nil || o.Sweep == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.m[memoKey(o, degree)]
}

func (m *identityMemo) put(o Options, degree int, id *gridIdentity) {
	if m == nil || o.Sweep == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil || len(m.m) >= cmp.Or(m.capacity, identityMemoCap) {
		m.m = map[identityKey]*gridIdentity{}
	}
	m.m[memoKey(o, degree)] = id
}

// RunGammaGrid evaluates the 4x4 Γ grid under one harvest regime: every
// cell is a full harvest-coupled simulation on a fresh fleet, tuned on the
// validation split like Figure 3. Cells fan out across workers; the result
// is bit-identical at any GOMAXPROCS.
func RunGammaGrid(o Options, regime GammaRegime) (*GammaGridResult, error) {
	o = o.Defaults()
	g, err := newGammaGrid(newWorld(o, cifar, PaperDegree), []GammaRegime{regime}, nil)
	if err != nil {
		return nil, err
	}
	return g.runRegime(0)
}

// newGammaGrid searches w's topology — its degree is the degree axis of
// the degree-coupled grid (TableDegreeGamma), 6 the paper's. The graph
// fingerprint in each cell manifest covers the degree, so cells from
// different degrees never collide in the cache while identical (degree,
// regime, Γ) cells from overlapping sweeps dedupe.
//
// A memo that holds the grid's identity supplies it and nothing is built
// (regimes must then be gammaGridRegimes). Otherwise the graph is built
// for its fingerprint and kept for the cells, each regime's trace is
// sampled once for its report name, a keyed grid derives its keys, and the
// memo keeps the result — unless anything failed to build.
func newGammaGrid(w *World, regimes []GammaRegime, memo *identityMemo) (*gammaGrid, error) {
	g := &gammaGrid{World: w, regimes: regimes, id: memo.get(w.o, w.degree)}
	if g.id != nil {
		return g, nil
	}
	if err := w.buildTopology(); err != nil {
		return nil, err
	}
	g.id = &gridIdentity{fingerprint: w.graph.Fingerprint(), regimes: make([]regimeIdentity, len(regimes))}
	for ri, regime := range regimes {
		sample, err := regime.Trace(w.o, w.MeanTrainWh)
		if err != nil {
			return nil, fmt.Errorf("experiments: gamma grid %s: %w", regime.Name, err)
		}
		g.id.regimes[ri].trace = sample.Name()
		if w.o.Sweep != nil { // keyed cells cache under their content hash, an unkeyed grid runs as it always did
			g.id.regimes[ri].keys = gridKeys(g.cellManifest(regime, sample.Name(), 1, 1))
		}
	}
	memo.put(w.o, w.degree, g.id)
	return g, nil
}

// tuningManifest starts the manifest of Γ-tuning work — a grid's run or
// one cell — on o and the graph: every Options field that changes the
// computed bits, so sweep.KeyFromBuilder of a finished cell manifest is a
// safe cache key, and the readout, which decides what a cell's accuracy
// means.
// Deliberately excluded, because they cannot change the bits: Probe/Out
// (telemetry is read-only), EvalEvery (tuning cells always run with
// EvalEvery 0), and worker count (GOMAXPROCS is unhashed by design). Each
// kind of cell hashes under its own engine name, so no two kinds share a
// key.
func tuningManifest(o Options, engine, label string, fingerprint uint64) *obs.ManifestBuilder {
	return obs.NewManifest(engine, label, o.Seed).
		Scale(o.Nodes, o.Rounds).
		SetHex("graph", fingerprint).
		SetFloat("lr", o.LR).
		SetInt("batch", o.BatchSize).
		SetInt("local_steps", o.LocalSteps).
		SetInt("train_per_node", o.TrainPerNode).
		SetInt("test_samples", o.TestSamples).
		SetFloat("noise", o.Noise).
		SetInt("eval_subsample", o.EvalSubsample).
		Set("readout", readoutName)
}

// cellManifest is the identity of one (regime, Γt, Γs) cell of a harvest
// grid: tuningManifest plus every regime and fleet field.
func (g *gammaGrid) cellManifest(regime GammaRegime, traceName string, gt, gs int) *obs.ManifestBuilder {
	fo := gammaGridFleetOptions()
	return tuningManifest(g.o, "gammacell", regime.Name, g.id.fingerprint).
		Set("regime", regime.Name).
		Set("trace", traceName).
		Set("policy", "soc-threshold").
		SetFloat("min_soc", gammaGridMinSoC).
		SetFloat("fleet_capacity_rounds", fo.CapacityRounds).
		SetFloat("fleet_initial_soc", fo.InitialSoC).
		Set("gamma_train", strconv.Itoa(gt)).Set("gamma_sync", strconv.Itoa(gs))
}

// gridKeys derives sixteen cell keys (keys[gs-1][gt-1]) off one builder,
// Γs re-set per row and Γt per cell: a regime's, off its cellManifest,
// each the config hash and revision of cellManifest(..., gt, gs).Build().
func gridKeys(b *obs.ManifestBuilder) (keys gammaKeys) {
	for gs := range keys {
		b.Set("gamma_sync", strconv.Itoa(gs+1))
		for gt := range keys[gs] {
			keys[gs][gt] = sweep.KeyFromBuilder(b.Set("gamma_train", strconv.Itoa(gt+1)))
		}
	}
	return keys
}

func (g *gammaGrid) runRegime(ri int) (*GammaGridResult, error) {
	regime, id := g.regimes[ri], &g.id.regimes[ri]
	// One run_start/run_end pair per regime; each completed cell emits one
	// cell event. Cells fan out across workers, so cell events arrive in
	// wall-clock order — the probe's sinks are concurrency-safe, and the
	// grid itself stays bit-identical (preallocated slots, no probe inside
	// the per-cell sims).
	p := g.o.Probe
	if p.Enabled() {
		manifest := tuningManifest(g.o, "gammagrid", regime.Name, g.id.fingerprint).
			Set("trace", id.trace).
			Set("grid", strconv.Itoa(gammaGridMax)+"x"+strconv.Itoa(gammaGridMax)).
			Build()
		p.RunStart(&manifest, 0)
	}
	grid, err := gammaCells(g.o.Sweep, &id.keys, func(gt, gs int) (GammaHarvestCell, error) {
		start := time.Now()
		cell, err := g.runCell(regime, gt, gs)
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
		Regime:  regime.Name,
		Trace:   id.trace,
		Grid:    grid,
		samples: evalSamples(g.o, valSplit(g.o)),
		Best: bestGammaCell(grid,
			func(c GammaHarvestCell) float64 { return c.FinalAcc },
			func(c GammaHarvestCell) float64 { return c.ConsumedWh }),
	}, nil
}

func (g *gammaGrid) runCell(regime GammaRegime, gt, gs int) (GammaHarvestCell, error) {
	fail := func(err error) (GammaHarvestCell, error) {
		return GammaHarvestCell{}, fmt.Errorf("experiments: gamma grid %s Γt=%d Γs=%d: %w", regime.Name, gt, gs, err)
	}
	gamma, err := core.NewGamma(gt, gs)
	if err != nil {
		return fail(err)
	}
	policy, err := harvest.NewSoCThreshold(gammaGridMinSoC)
	if err != nil {
		return fail(err)
	}
	cfg, err := g.tuneConfig(core.Algorithm{Label: regime.Name, Schedule: gamma, Policy: policy})
	if err != nil {
		return fail(err)
	}
	if _, err := g.fleet(&cfg, regime, gammaGridFleetOptions()); err != nil {
		return fail(err)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return fail(err)
	}
	arrived := res.TotalHarvestWh + res.TotalWastedWh
	wastedFrac := 0.0
	if arrived > 0 {
		wastedFrac = res.TotalWastedWh / arrived
	}
	return GammaHarvestCell{
		GammaTrain: gt, GammaSync: gs,
		FinalAcc:      Readout(res, gamma),
		Participation: tallyRun(cfg, res).participation,
		HarvestedWh:   res.TotalHarvestWh,
		ConsumedWh:    cfg.Harvest.ConsumedWh(),
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
	grids, rows, err := gammaHarvest(newWorld(o, cifar, PaperDegree), nil)
	if err != nil {
		return nil, err
	}
	for _, res := range grids {
		res.render(o.Out)
		fmt.Fprintln(o.Out)
	}
	renderGammaHarvestRows(o.Out, rows)
	fmt.Fprintln(o.Out, periodNote(evalSamples(o, valSplit(o))))
	return rows, nil
}

// gammaHarvest is TableGammaHarvest on w without the rendering — all the
// sweep handlers, which have no reader, run, and they alone bring a memo.
func gammaHarvest(w *World, memo *identityMemo) (grids []*GammaGridResult, rows []GammaHarvestRow, err error) {
	regimes := gammaGridRegimes
	g, err := newGammaGrid(w, regimes, memo)
	if err != nil {
		return nil, nil, err
	}
	for ri := range regimes {
		res, err := g.runRegime(ri)
		if err != nil {
			return nil, nil, err
		}
		grids = append(grids, res)
		rows = append(rows, GammaHarvestRow{Regime: res.Regime, Trace: res.Trace, Best: res.Best})
	}
	return grids, rows, nil
}

// renderGammaHarvestRows writes the per-regime summary table.
func renderGammaHarvestRows(out io.Writer, rows []GammaHarvestRow) {
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
// starred), the best-cell summary line and the readout.
func (r *GammaGridResult) Render(out io.Writer) {
	r.render(out)
	fmt.Fprintf(out, "%s\n\n", periodNote(r.samples))
}

// render is Render without the readout, which a table of several grids
// names once.
func (r *GammaGridResult) render(out io.Writer) {
	h := gammaHeatmap(fmt.Sprintf("Γ grid under %s (%s): validation accuracy [%%]", r.Regime, r.Trace),
		r.Grid, func(c GammaHarvestCell) float64 { return c.FinalAcc })
	h.HigherIsBetter = true
	h.SetMark(r.Best.GammaSync-1, r.Best.GammaTrain-1)
	h.Render(out)
	fmt.Fprintf(out, "best: Γtrain=%d Γsync=%d (%.1f%%, harvested %.4f Wh, consumed %.4f Wh, wasted %.1f%%)\n",
		r.Best.GammaTrain, r.Best.GammaSync, r.Best.FinalAcc,
		r.Best.HarvestedWh, r.Best.ConsumedWh, 100*r.Best.WastedFrac)
}

// gammaHeatmap is the Γs x Γt heatmap of one value of every cell of a grid
// laid out grid[gs-1][gt-1].
func gammaHeatmap[C any](title string, grid [][]C, value func(C) float64) *report.Heatmap {
	names := []string{"1", "2", "3", "4"}
	h := &report.Heatmap{
		Title:    title,
		RowLabel: "Γs", ColLabel: "Γt",
		RowNames: names, ColNames: names,
		Cells: make([][]float64, len(grid)),
	}
	for gs, row := range grid {
		h.Cells[gs] = make([]float64, len(row))
		for gt, c := range row {
			h.Cells[gs][gt] = value(c)
		}
	}
	return h
}
