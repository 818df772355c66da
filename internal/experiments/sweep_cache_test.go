package experiments

import (
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// TestSweepCacheColdCachedFreshBitIdentical is the cache-correctness
// differential: a grid computed cold, the same grid served entirely from
// that cache, and the same grid recomputed fresh against an empty store
// must agree bit-for-bit, cell by cell and as JSON bytes — a hit is a
// recompute. (Forced-revision invalidation is pinned at the sweep layer:
// see sweep.TestGridRevisionChangeInvalidates.)
func TestSweepCacheColdCachedFreshBitIdentical(t *testing.T) {
	o := tiny()
	o.Rounds = 8
	regime := GammaGridRegimes(o)[3] // markov-lo: stateful trace, hardest case

	store := sweep.NewMemStore(0)
	runGrid := func(st sweep.Store) (*GammaGridResult, sweep.Stats) {
		oo := o
		r := sweep.NewRunner(st, nil)
		oo.Sweep = r
		res, err := RunGammaGrid(oo, regime)
		if err != nil {
			t.Fatal(err)
		}
		return res, r.Stats()
	}

	cold, st := runGrid(store)
	if st.Misses != 16 || st.Hits != 0 {
		t.Fatalf("cold run stats %+v", st)
	}
	cached, st := runGrid(store)
	if !st.AllHits() || st.Cells != 16 {
		t.Fatalf("run against warm cache stats %+v", st)
	}
	fresh, st := runGrid(sweep.NewMemStore(0))
	if st.Misses != 16 {
		t.Fatalf("fresh run stats %+v", st)
	}

	for gs := range cold.Grid {
		for gt := range cold.Grid[gs] {
			if cold.Grid[gs][gt] != cached.Grid[gs][gt] || cold.Grid[gs][gt] != fresh.Grid[gs][gt] {
				t.Fatalf("cell Γt=%d Γs=%d diverges:\ncold   %+v\ncached %+v\nfresh  %+v",
					gt+1, gs+1, cold.Grid[gs][gt], cached.Grid[gs][gt], fresh.Grid[gs][gt])
			}
		}
	}
	enc := func(r *GammaGridResult) string {
		b, err := json.Marshal(r.Grid)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if enc(cold) != enc(cached) || enc(cold) != enc(fresh) {
		t.Fatal("grid JSON bytes differ between cached and computed paths")
	}
}

// A warm rerun of the full TableGammaHarvest recomputes nothing: every one
// of the 80 cells is served from the cache and the rows are identical.
func TestSweepWarmTableGammaHarvestAllHits(t *testing.T) {
	o := tiny()
	o.Rounds = 8
	store := sweep.NewMemStore(0)

	o.Sweep = sweep.NewRunner(store, nil)
	cold, err := TableGammaHarvest(o)
	if err != nil {
		t.Fatal(err)
	}
	if st := o.Sweep.Stats(); st.Misses != 80 || st.Hits != 0 {
		t.Fatalf("cold table stats %+v", st)
	}

	o.Sweep = sweep.NewRunner(store, nil)
	warm, err := TableGammaHarvest(o)
	if err != nil {
		t.Fatal(err)
	}
	if st := o.Sweep.Stats(); !st.AllHits() || st.Cells != 80 {
		t.Fatalf("warm table stats %+v", st)
	}
	for i := range cold {
		if cold[i] != warm[i] {
			t.Fatalf("row %d differs warm vs cold:\n%+v\n%+v", i, warm[i], cold[i])
		}
	}

	// And without a runner the table still matches: the sweep path is an
	// overlay, not a fork.
	o.Sweep = nil
	plain, err := TableGammaHarvest(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if cold[i] != plain[i] {
			t.Fatalf("row %d differs with sweep detached:\n%+v\n%+v", i, plain[i], cold[i])
		}
	}
}

// The sweep probe narrates cell outcomes: a cold grid streams 16 "miss"
// cell events, a warm rerun 16 "hit" events — without perturbing values.
func TestSweepProbeStreamsCellVerdicts(t *testing.T) {
	o := tiny()
	o.Rounds = 8
	regime := GammaGridRegimes(o)[0]
	store := sweep.NewMemStore(0)

	count := func(mem *obs.MemorySink, prefix string) int {
		n := 0
		for _, ev := range mem.Events() {
			if ev.Kind == obs.KindCell && strings.HasPrefix(ev.Label, prefix) {
				n++
			}
		}
		return n
	}
	run := func() *obs.MemorySink {
		mem := obs.NewMemory()
		o.Sweep = sweep.NewRunner(store, nil).Scope(obs.NewProbe(mem))
		if _, err := RunGammaGrid(o, regime); err != nil {
			t.Fatal(err)
		}
		return mem
	}
	if mem := run(); count(mem, "miss ") != 16 {
		t.Fatalf("cold run streamed %d miss events, want 16", count(mem, "miss "))
	}
	if mem := run(); count(mem, "hit ") != 16 {
		t.Fatalf("warm run streamed %d hit events, want 16", count(mem, "hit "))
	}
}

func TestTableDegreeGammaStructure(t *testing.T) {
	o := tiny()
	o.Rounds = 8
	var sb strings.Builder
	o.Out = &sb
	o.Sweep = sweep.NewRunner(sweep.NewMemStore(0), nil)
	res, err := TableDegreeGamma(o, []int{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degrees) != 2 || len(res.Regimes) != len(GammaGridRegimes(o)) {
		t.Fatalf("axes %v x %v", res.Degrees, res.Regimes)
	}
	if st := o.Sweep.Stats(); st.Misses != 2*len(res.Regimes)*16 {
		t.Fatalf("degree grid stats %+v, want one miss per simulation", st)
	}
	for di := range res.Best {
		if len(res.Best[di]) != len(res.Regimes) {
			t.Fatalf("row %d has %d cells", di, len(res.Best[di]))
		}
		for ri, c := range res.Best[di] {
			if c.GammaTrain < 1 || c.GammaTrain > 4 || c.GammaSync < 1 || c.GammaSync > 4 {
				t.Fatalf("best cell [%d][%d] outside grid: %+v", di, ri, c)
			}
		}
	}
	if res.TopologyDistinct < 1 || res.ArrivalDistinct < 1 {
		t.Fatalf("distinct counts below 1: %+v", res)
	}
	switch res.Dominant {
	case "arrival", "topology", "neither":
	default:
		t.Fatalf("dominant verdict %q", res.Dominant)
	}
	out := sb.String()
	if !strings.Contains(out, "Degree-coupled harvest grid") || !strings.Contains(out, "dominates schedule choice") {
		t.Fatalf("table or verdict not rendered:\n%s", out)
	}
}

// The degree-6 column of the degree grid shares cells bit-for-bit with the
// plain Γ search: running TableDegreeGamma after TableGammaHarvest on one
// store serves the whole degree-6 column from cache.
func TestTableDegreeGammaSharesDegreeSixCells(t *testing.T) {
	o := tiny()
	o.Rounds = 8
	store := sweep.NewMemStore(0)

	o.Sweep = sweep.NewRunner(store, nil)
	rows, err := TableGammaHarvest(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Sweep = sweep.NewRunner(store, nil)
	res, err := TableDegreeGamma(o, []int{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	st := o.Sweep.Stats()
	nReg := len(res.Regimes)
	if st.Hits != nReg*16 || st.Misses != nReg*16 {
		t.Fatalf("degree grid after Γ search: stats %+v, want the degree-6 half served from cache", st)
	}
	// The shared column selects the same winners.
	for ri := range res.Regimes {
		if res.Best[1][ri] != rows[ri].Best {
			t.Fatalf("degree-6 best for %s differs from TableGammaHarvest: %+v vs %+v",
				res.Regimes[ri], res.Best[1][ri], rows[ri].Best)
		}
	}
}

// TestSweepServiceDegreeGridEndToEnd drives the degree grid through the
// real service: a client submits JobDegreeGrid over TCP, progress events
// stream back per cell, the reply decodes into a DegreeGammaResult that
// renders locally, and a warm resubmission is served entirely from cache.
func TestSweepServiceDegreeGridEndToEnd(t *testing.T) {
	srv, err := sweep.NewServer("127.0.0.1:0", sweep.NewMemStore(0), nil)
	if err != nil {
		t.Skipf("cannot open localhost sockets in this environment: %v", err)
	}
	RegisterSweepHandlers(srv)
	go srv.Serve()
	defer srv.Close()

	c, err := sweep.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	o := tiny()
	params := SweepJobParams{Nodes: o.Nodes, Rounds: 8, Seed: o.Seed, Degrees: []int{4, 6}}
	var progress int
	raw, stats, err := c.Do(JobDegreeGrid, params, func(ev obs.Event) {
		if ev.Kind == obs.KindCell {
			progress++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * len(GammaGridRegimes(Options{})) * 16
	if stats.Misses != want || progress != want {
		t.Fatalf("cold job: stats %+v, %d progress events, want %d cells", stats, progress, want)
	}
	var res DegreeGammaResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Best) != 2 || res.Dominant == "" {
		t.Fatalf("decoded result %+v", res)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Degree-coupled harvest grid") {
		t.Fatalf("client-side render failed:\n%s", sb.String())
	}

	// Identical params reconstruct identical Options on the server, so a
	// resubmission is served entirely from the shared cache.
	_, stats, err = c.Do(JobDegreeGrid, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AllHits() {
		t.Fatalf("warm resubmission stats %+v", stats)
	}
}

// TestTableDegreeGammaReproducibleAcrossGOMAXPROCS extends the grid
// bit-identity pin to the degree axis.
func TestTableDegreeGammaReproducibleAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) *DegreeGammaResult {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		o := tiny()
		o.Rounds = 8
		res, err := TableDegreeGamma(o, []int{4, 6})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	for di := range a.Best {
		for ri := range a.Best[di] {
			if a.Best[di][ri] != b.Best[di][ri] {
				t.Fatalf("best[%d][%d] differs across GOMAXPROCS:\n%+v\n%+v",
					di, ri, a.Best[di][ri], b.Best[di][ri])
			}
		}
	}
	if a.Dominant != b.Dominant {
		t.Fatalf("verdict differs: %q vs %q", a.Dominant, b.Dominant)
	}
}

// allocatedBytes is the heap volume f allocates, at GOMAXPROCS 1 so no
// other goroutine's allocations are counted with it.
func allocatedBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSweepWarmPathCheapAndLazy holds the all-hit path to what it serves:
// keys, store lookups and payload decodes. Nothing a hit does not need —
// the dataset above all, which cost more than the rest of a warm request
// together while newGammaWorld built it eagerly — may come back.
func TestSweepWarmPathCheapAndLazy(t *testing.T) {
	o := tiny()
	o.Rounds = 8
	store := sweep.NewMemStore(0)
	degrees := []int{4, 6, 8}
	o.Sweep = sweep.NewRunner(store, nil)
	if _, err := TableGammaHarvest(o); err != nil {
		t.Fatal(err)
	}
	if _, err := TableDegreeGamma(o, degrees); err != nil {
		t.Fatal(err)
	}

	// Measured 1796 allocations for the warm table, rendering to
	// io.Discard included: 22.5 per cell (it was 7764, 97 per cell, with
	// per-cell manifests, build-info parses and the eager dataset). The
	// budget is that plus a quarter.
	const perCellBudget = 28
	warmTable := func() {
		o.Sweep = sweep.NewRunner(store, nil)
		if _, err := TableGammaHarvest(o); err != nil {
			t.Fatal(err)
		}
		if st := o.Sweep.Stats(); !st.AllHits() || st.Cells != 80 {
			t.Fatalf("warm table stats %+v", st)
		}
	}
	if n := testing.AllocsPerRun(5, warmTable); n > 80*perCellBudget {
		t.Errorf("warm TableGammaHarvest: %.0f allocations, %.1f per cell; budget %d per cell", n, n/80, perCellBudget)
	}

	// Three degrees, 240 hits (measured 179 736 bytes), against one
	// dataset (230 664 bytes): had any of the three worlds built its
	// data, the grid could not come in under it.
	warmDegrees := allocatedBytes(func() {
		o.Sweep = sweep.NewRunner(store, nil)
		if _, err := TableDegreeGamma(o, degrees); err != nil {
			t.Fatal(err)
		}
		if st := o.Sweep.Stats(); !st.AllHits() || st.Cells != 240 {
			t.Fatalf("warm degree grid stats %+v", st)
		}
	})
	dataset := allocatedBytes(func() {
		if _, _, _, err := cifarLikeData(o.Defaults()); err != nil {
			t.Fatal(err)
		}
	})
	if warmDegrees >= dataset {
		t.Errorf("warm TableDegreeGamma allocated %d bytes, one cifarLikeData call %d: a dataset was built on the hit path", warmDegrees, dataset)
	}
}

// holeStore is a Store with one key knocked out until it is Put again.
type holeStore struct {
	sweep.Store
	mu     sync.Mutex
	hole   sweep.CellKey
	filled bool
}

func (h *holeStore) Get(k sweep.CellKey) (sweep.CellResult, bool, error) {
	h.mu.Lock()
	miss := k == h.hole && !h.filled
	h.mu.Unlock()
	if miss {
		return sweep.CellResult{}, false, nil
	}
	return h.Store.Get(k)
}

func (h *holeStore) Put(res sweep.CellResult) error {
	h.mu.Lock()
	h.filled = h.filled || res.Key == h.hole
	h.mu.Unlock()
	return h.Store.Put(res)
}

// The world's data is built by the first cell that computes, wherever in
// the grid that is: when fifteen cells hit and only the last one misses,
// the dataset is built mid-grid, under the pool, and that cell still
// equals the uncached path's bit for bit — at GOMAXPROCS 1 and 8.
func TestSweepLastCellOnlyMissBuildsWorldMidGrid(t *testing.T) {
	o := tiny()
	o.Rounds = 8
	regime := GammaGridRegimes(o)[3] // markov-lo: stateful trace
	plain, err := RunGammaGrid(o, regime)
	if err != nil {
		t.Fatal(err)
	}
	store := sweep.NewMemStore(0)
	o.Sweep = sweep.NewRunner(store, nil)
	if _, err := RunGammaGrid(o, regime); err != nil {
		t.Fatal(err)
	}
	last := sweep.CellKey{ConfigHash: cellHash(t, o, 6, 3, gammaGridMax, gammaGridMax), Revision: obs.GitRevision()}
	if _, ok, _ := store.Get(last); !ok {
		t.Fatalf("cold fill did not store the last cell under %s", last)
	}
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		o.Sweep = sweep.NewRunner(&holeStore{Store: store, hole: last}, nil)
		got, err := RunGammaGrid(o, regime)
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatal(err)
		}
		if st := o.Sweep.Stats(); st.Hits != 15 || st.Misses != 1 {
			t.Fatalf("GOMAXPROCS %d: stats %+v, want 15 hits and the last cell's miss", procs, st)
		}
		for gs := range plain.Grid {
			for gt := range plain.Grid[gs] {
				if got.Grid[gs][gt] != plain.Grid[gs][gt] {
					t.Fatalf("GOMAXPROCS %d, Γt=%d Γs=%d:\nwith one miss %+v\nuncached      %+v", procs, gt+1, gs+1, got.Grid[gs][gt], plain.Grid[gs][gt])
				}
			}
		}
		if got.Best != plain.Best {
			t.Fatalf("GOMAXPROCS %d: best %+v, uncached %+v", procs, got.Best, plain.Best)
		}
	}
}
