package experiments

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/obstest"
)

func TestTableGammaHarvestStructure(t *testing.T) {
	var sb strings.Builder
	o := tiny()
	o.Rounds = 16
	o.Out = &sb
	rows, err := TableGammaHarvest(o)
	if err != nil {
		t.Fatal(err)
	}
	regimes := GammaGridRegimes(o)
	if len(rows) != len(regimes) {
		t.Fatalf("%d rows, want %d regimes", len(rows), len(regimes))
	}
	for i, r := range rows {
		if r.Regime != regimes[i].Name {
			t.Fatalf("row %d regime %q, want %q", i, r.Regime, regimes[i].Name)
		}
		b := r.Best
		if b.GammaTrain < 1 || b.GammaTrain > 4 || b.GammaSync < 1 || b.GammaSync > 4 {
			t.Fatalf("%s best cell outside the grid: %+v", r.Regime, b)
		}
		if b.Participation < 0 || b.Participation > 100 {
			t.Fatalf("%s participation %.1f%% out of range", r.Regime, b.Participation)
		}
		if b.WastedFrac < 0 || b.WastedFrac > 1 || math.IsNaN(b.WastedFrac) {
			t.Fatalf("%s wasted fraction %v out of range", r.Regime, b.WastedFrac)
		}
		if b.ConsumedWh <= 0 {
			t.Fatalf("%s consumed nothing", r.Regime)
		}
	}
	// The fixed-budget baseline is the zero-harvest special case: nothing
	// arrives, so nothing is stored or wasted — and the wasted fraction is
	// 0, not NaN (the 0/0 degeneracy the renderer must not leak).
	fixed := rows[0]
	if fixed.Regime != "fixed-budget" {
		t.Fatalf("first regime %q, want fixed-budget", fixed.Regime)
	}
	if fixed.Best.HarvestedWh != 0 || fixed.Best.WastedWh != 0 || fixed.Best.WastedFrac != 0 {
		t.Fatalf("fixed-budget regime harvested/wasted energy: %+v", fixed.Best)
	}
	out := sb.String()
	if !strings.Contains(out, "Harvest-aware Γ-schedule search") {
		t.Fatalf("summary table not rendered:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Fatalf("rendered output leaks NaN:\n%s", out)
	}
	// One starred heatmap per regime.
	if n := strings.Count(out, "(* marks the selected cell)"); n != len(regimes) {
		t.Fatalf("%d marked heatmaps rendered, want %d:\n%s", n, len(regimes), out)
	}
}

func TestRunGammaGridSingleRegime(t *testing.T) {
	o := tiny()
	o.Rounds = 12
	res, err := RunGammaGrid(o, GammaRegime{
		Name:  "custom",
		Trace: GammaGridRegimes(o)[2].Trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grid) != 4 || len(res.Grid[0]) != 4 {
		t.Fatal("grid shape wrong")
	}
	for gs := 0; gs < 4; gs++ {
		for gt := 0; gt < 4; gt++ {
			c := res.Grid[gs][gt]
			if c.GammaTrain != gt+1 || c.GammaSync != gs+1 {
				t.Fatalf("cell (%d,%d) carries Γ=(%d,%d); slot mixed up",
					gt+1, gs+1, c.GammaTrain, c.GammaSync)
			}
			if c.HarvestedWh <= 0 {
				t.Fatalf("diurnal cell Γt=%d Γs=%d harvested nothing", gt+1, gs+1)
			}
		}
	}
	if res.Trace == "" || !strings.Contains(res.Trace, "diurnal") {
		t.Fatalf("trace name %q", res.Trace)
	}
}

// TestBestGammaCellSeedsFromFirstCell is the regression test for the
// Figure3 best-cell bug: on an all-zero-accuracy grid (tiny horizons) the
// old code kept the zero-value seed and reported Γtrain=0, Γsync=0 at
// 0 Wh as "best". Seeded from the first cell, the tie-break toward lower
// energy must pick the cheapest real cell.
func TestBestGammaCellSeedsFromFirstCell(t *testing.T) {
	grid, err := gammaCells(nil, new(gammaKeys), func(gt, gs int) (Figure3Cell, error) {
		return Figure3Cell{
			GammaTrain: gt, GammaSync: gs,
			ValAcc:        0, // every cell ties at zero accuracy
			PaperEnergyWh: float64(100*gt + gs),
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	best := bestGammaCell(grid,
		func(c Figure3Cell) float64 { return c.ValAcc },
		func(c Figure3Cell) float64 { return c.PaperEnergyWh })
	if best.GammaTrain == 0 || best.GammaSync == 0 {
		t.Fatalf("best is the impossible zero-value cell: %+v", best)
	}
	// Lowest energy among the ties is Γt=1, Γs=1 (energy 101).
	if best.GammaTrain != 1 || best.GammaSync != 1 {
		t.Fatalf("tie-break picked %+v, want the cheapest cell (1,1)", best)
	}
	// With distinct accuracies the maximum wins regardless of energy.
	grid2, err := gammaCells(nil, new(gammaKeys), func(gt, gs int) (Figure3Cell, error) {
		return Figure3Cell{GammaTrain: gt, GammaSync: gs,
			ValAcc: float64(10*gt + gs), PaperEnergyWh: 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	best2 := bestGammaCell(grid2,
		func(c Figure3Cell) float64 { return c.ValAcc },
		func(c Figure3Cell) float64 { return c.PaperEnergyWh })
	if best2.GammaTrain != 4 || best2.GammaSync != 4 {
		t.Fatalf("max accuracy not selected: %+v", best2)
	}
}

func TestGammaCellsSurfaceLowestCellError(t *testing.T) {
	_, err := gammaCells(nil, new(gammaKeys), func(gt, gs int) (Figure3Cell, error) {
		if gs >= 3 {
			return Figure3Cell{}, &cellErr{gt, gs}
		}
		return Figure3Cell{GammaTrain: gt, GammaSync: gs}, nil
	})
	if err == nil {
		t.Fatal("cell error not surfaced")
	}
	if err.Error() != "cell error Γt=1 Γs=3" {
		t.Fatalf("got %v, want the lowest-indexed cell's error", err)
	}
}

type cellErr struct{ gt, gs int }

func (e *cellErr) Error() string { return "cell error Γt=" + itoa(e.gt) + " Γs=" + itoa(e.gs) }

func itoa(n int) string { return string(rune('0' + n)) }

// TestTableGammaHarvestReproducibleAcrossGOMAXPROCS pins the acceptance
// criterion: rows — and the full grids behind them — are bit-identical
// between GOMAXPROCS=1 (the serial path) and GOMAXPROCS=8.
func TestTableGammaHarvestReproducibleAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) []GammaHarvestRow {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		o := tiny()
		o.Rounds = 16
		rows, err := TableGammaHarvest(o)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial := run(1)
	wide := run(8)
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("row %d differs across GOMAXPROCS:\n%+v\n%+v", i, serial[i], wide[i])
		}
	}
	// And a full single-regime grid, cell by cell.
	o := tiny()
	o.Rounds = 16
	gridAt := func(procs int) *GammaGridResult {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		res, err := RunGammaGrid(o, GammaGridRegimes(o)[3])
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := gridAt(1), gridAt(8)
	for gs := range a.Grid {
		for gt := range a.Grid[gs] {
			if a.Grid[gs][gt] != b.Grid[gs][gt] {
				t.Fatalf("cell Γt=%d Γs=%d differs across GOMAXPROCS:\n%+v\n%+v",
					gt+1, gs+1, a.Grid[gs][gt], b.Grid[gs][gt])
			}
		}
	}
}

// TestTableGammaHarvestScheduleMovesWithRegime is the headline acceptance
// pin: at default scale the selected (Γtrain, Γsync) differs across at
// least two harvest regimes — the schedule is a function of the arrival
// process, which is the reason the harvest-aware search exists.
func TestTableGammaHarvestScheduleMovesWithRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale grid search (80 simulations) skipped in -short mode")
	}
	rows, err := TableGammaHarvest(Options{})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[[2]int]bool{}
	for _, r := range rows {
		distinct[[2]int{r.Best.GammaTrain, r.Best.GammaSync}] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("every regime selected the same schedule %v; rows: %+v", distinct, rows)
	}
}

// With a probe attached, the grid runner emits one run_start/run_end pair
// and exactly one cell event per grid cell — and the probe must not change
// the computed grid.
func TestGammaGridCellEvents(t *testing.T) {
	o := tiny()
	o.Rounds = 8
	regime := GammaRegime{Name: "probed", Trace: GammaGridRegimes(o)[1].Trace}
	plain, err := RunGammaGrid(o, regime)
	if err != nil {
		t.Fatal(err)
	}
	mem := obstest.NewMemory()
	o.Probe = obs.NewProbe(mem)
	probed, err := RunGammaGrid(o, regime)
	if err != nil {
		t.Fatal(err)
	}
	for gs := 0; gs < gammaGridMax; gs++ {
		for gt := 0; gt < gammaGridMax; gt++ {
			if plain.Grid[gs][gt] != probed.Grid[gs][gt] {
				t.Fatalf("cell (%d,%d) differs with probe attached", gt+1, gs+1)
			}
		}
	}
	if n := countKind(mem.Events(), obs.KindCell); n != gammaGridMax*gammaGridMax {
		t.Fatalf("cell events = %d, want %d", n, gammaGridMax*gammaGridMax)
	}
	if countKind(mem.Events(), obs.KindRunStart) != 1 || countKind(mem.Events(), obs.KindRunEnd) != 1 {
		t.Fatalf("run events: %d start, %d end", countKind(mem.Events(), obs.KindRunStart), countKind(mem.Events(), obs.KindRunEnd))
	}
	first := mem.Events()[0]
	if first.Kind != obs.KindRunStart || first.Manifest == nil || first.Manifest.Engine != "gammagrid" {
		t.Fatalf("stream must open with the gammagrid manifest, got %+v", first)
	}
	for _, ev := range mem.Events() {
		if ev.Kind == obs.KindCell && (ev.Label == "" || ev.WallNs <= 0) {
			t.Fatalf("cell event missing label or wall clock: %+v", ev)
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

// TestGammaCellAllocsIndependentOfNodes: past the world a grid shares (its
// data and topology, built here first), a Γ-grid cell builds everything
// per sample, per node and per field as windows of per-call slabs, so a
// cell of 300 nodes allocates exactly as often as one of 8 under every
// standard regime (at GOMAXPROCS 1; above it par.ForOn spawns workers).
// The validation split is 32 samples, not 320: a cell scores every node on
// all of it in each round of its readout's window, which allocates nothing
// and would only make the 300-node cells slow.
func TestGammaCellAllocsIndependentOfNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	grid := func(nodes int) *gammaGrid {
		w := newWorld(Options{Nodes: nodes, Rounds: 4, Seed: 7, TestSamples: 64}.Defaults(), cifar, 6)
		if _, err := w.data(); err != nil {
			t.Fatal(err)
		}
		if err := w.buildTopology(); err != nil {
			t.Fatal(err)
		}
		return &gammaGrid{World: w, regimes: gammaGridRegimes}
	}
	small, large := grid(8), grid(300)
	for _, regime := range gammaGridRegimes {
		// The least of a few measurements: a collection in mid-cell empties
		// fmt's sync.Pool and adds a stray allocation.
		allocs := func(g *gammaGrid) float64 {
			least := math.Inf(1)
			for range 5 {
				least = min(least, testing.AllocsPerRun(1, func() {
					if _, err := g.runCell(regime, 1, 3); err != nil {
						t.Fatal(err)
					}
				}))
			}
			return least
		}
		if s, l := allocs(small), allocs(large); s != l {
			t.Errorf("%s: a cell allocates %v times at 8 nodes, %v at 300", regime.Name, s, l)
		} else {
			t.Logf("%s: %v allocations a cell", regime.Name, s)
		}
	}
}
