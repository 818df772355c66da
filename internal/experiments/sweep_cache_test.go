package experiments

import (
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/par"
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

	count := func(mem *obstest.MemorySink, prefix string) int {
		n := 0
		for _, ev := range mem.Events() {
			if ev.Kind == obs.KindCell && strings.HasPrefix(ev.Label, prefix) {
				n++
			}
		}
		return n
	}
	run := func() *obstest.MemorySink {
		mem := obstest.NewMemory()
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
// store lookups that copy kept values out, under keys a server derives
// once. Nothing a hit does not need — the dataset above all, which cost
// more than the rest of a warm request together while the grid's world built
// it eagerly, then 80 payload decodes and a graph per request — may come
// back.
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

	// Measured 1343 allocations for the warm table, rendering to
	// io.Discard included: 16.8 per cell, most of them the eighty keys a
	// table without a server derives every time (it was 1796, 22.5 per
	// cell, while every hit decoded its payload, and 7764 with per-cell
	// manifests, build-info parses and the eager dataset). The budget is
	// that plus a quarter; the race detector allocates on its own account.
	const perCellBudget = 21
	warmTable := func() {
		o.Sweep = sweep.NewRunner(store, nil)
		if _, err := TableGammaHarvest(o); err != nil {
			t.Fatal(err)
		}
		if st := o.Sweep.Stats(); !st.AllHits() || st.Cells != 80 {
			t.Fatalf("warm table stats %+v", st)
		}
	}
	if n := testing.AllocsPerRun(5, warmTable); n > 80*perCellBudget && !raceEnabled {
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

	// The whole request, both ends in this process: client encode, frame,
	// server decode, memo lookup, 80 store lookups each copying a kept
	// value, reduce, one reply encode, frame, client decode. Measured 120
	// allocations (985 with 80 payload decodes and the identity rederived
	// per request); the least of five runs keeps a stray runtime
	// allocation out of the count.
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, err := sweep.NewServer("127.0.0.1:0", store, par.NewPool(1))
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
	// The wire carries nodes, rounds and seed alone, so the server's grid is
	// not tiny()'s: the first request fills its cells and the memo.
	params := SweepJobParams{Nodes: o.Nodes, Rounds: o.Rounds, Seed: o.Seed}
	if _, st, err := c.Do(JobGammaGrid, params, nil); err != nil || st.Misses != 80 {
		t.Fatalf("cold request: stats %+v, %v", st, err)
	}
	request := func() {
		if _, st, err := c.Do(JobGammaGrid, params, nil); err != nil || !st.AllHits() || st.Cells != 80 {
			t.Fatalf("warm request: stats %+v, %v", st, err)
		}
	}
	const requestBudget = 200
	least := math.Inf(1)
	for i := 0; i < 5; i++ {
		least = min(least, testing.AllocsPerRun(10, request))
	}
	if least > requestBudget {
		t.Errorf("warm gamma-grid request: %.0f allocations, budget %d", least, requestBudget)
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

	// A world whose identity came from a memo has built no graph either:
	// the one cell that misses builds the topology too, mid-grid, and the
	// grid still equals the uncached one.
	memo := &identityMemo{}
	o = o.Defaults()
	regimes := GammaGridRegimes(o)
	o.Sweep = sweep.NewRunner(store, nil)
	if _, err := newGammaGrid(newWorld(o, cifar, 6), regimes, memo); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		o.Sweep = sweep.NewRunner(&holeStore{Store: store, hole: last}, nil)
		w, err := newGammaGrid(newWorld(o, cifar, 6), regimes, memo)
		if err != nil || w.graph != nil {
			t.Fatalf("world over a memoized identity: graph built = %v, err %v", w.graph != nil, err)
		}
		got, err := w.runRegime(3)
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatal(err)
		}
		if st := o.Sweep.Stats(); st.Hits != 15 || st.Misses != 1 || w.graph == nil {
			t.Fatalf("GOMAXPROCS %d: stats %+v, graph built = %v; want the last cell's miss to build it", procs, st, w.graph != nil)
		}
		for gs := range plain.Grid {
			for gt := range plain.Grid[gs] {
				if got.Grid[gs][gt] != plain.Grid[gs][gt] {
					t.Fatalf("GOMAXPROCS %d, Γt=%d Γs=%d over a lazy topology:\n%+v\nuncached %+v", procs, gt+1, gs+1, got.Grid[gs][gt], plain.Grid[gs][gt])
				}
			}
		}
	}
}

// startSweepServer serves the experiment handlers over store with the
// given memo and returns a connected client.
func startSweepServer(t *testing.T, store sweep.Store, memo *identityMemo) (*sweep.Server, *sweep.Client) {
	t.Helper()
	srv, err := sweep.NewServer("127.0.0.1:0", store, nil)
	if err != nil {
		t.Skipf("cannot open localhost sockets in this environment: %v", err)
	}
	registerSweepHandlers(srv, memo)
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	c, err := sweep.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// One small job frame must not be able to kill the daemon: parameters are
// bounded before anything is allocated for them (nodes 2^40 used to reach
// graph.tryPairing and die of "out of memory", which no recover catches),
// a misspelt field is an error and not the default grid, and a refused
// job leaves the connection serving and the memo empty.
func TestSweepHandlersRefuseHostileParams(t *testing.T) {
	memo := &identityMemo{}
	_, c := startSweepServer(t, sweep.NewMemStore(0), memo)
	for _, kind := range []string{JobGammaGrid, JobDegreeGrid} {
		for params, want := range map[string]string{
			`{"nodes":1099511627776}`:  "nodes 1099511627776 outside",
			`{"rounds":1099511627776}`: "rounds 1099511627776 outside",
			`{"nodes":-4}`:             "nodes -4 outside",
			`{"rounds":-1}`:            "rounds -1 outside",
			`{"nodes":4097}`:           "nodes 4097 outside",
			`{"degrees":[2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2]}`:            "number of degrees 17 outside",
			`{"nodes":16,"degrees":[4,16]}`:                              "degree 16 outside [1, 15]",
			`{"degrees":[0]}`:                                            "degree 0 outside [1, 47]",
			`{"nodes":16,"degrees":[-2]}`:                                "degree -2 outside",
			`{"node":8}`:                                                 `unknown field "node"`,
			`{"nodes":16,"rounds":2,"seed":7,"degrees":[4],"workers":1}`: `unknown field "workers"`,
			`{"nodes":"16"}`:                                             "cannot unmarshal string",
			`[16,2,7]`:                                                   "cannot unmarshal array",
		} {
			start := time.Now()
			_, st, err := c.Do(kind, json.RawMessage(params), nil)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %s: error %v, want one containing %q", kind, params, err, want)
			}
			if d := time.Since(start); d > 100*time.Millisecond || st.Cells != 0 {
				t.Errorf("%s %s: refused after %v and %d cells", kind, params, d, st.Cells)
			}
		}
	}
	if n := len(memo.m); n != 0 {
		t.Fatalf("%d identities entered the memo from refused jobs", n)
	}
	if _, st, err := c.Do(JobGammaGrid, SweepJobParams{Nodes: 16, Rounds: 2, Seed: 7}, nil); err != nil || st.Misses != 80 {
		t.Fatalf("valid job on the same connection: stats %+v, %v", st, err)
	}
	if n := len(memo.m); n != 1 {
		t.Fatalf("memo holds %d identities after one valid job", n)
	}
}

// Four clients' warm requests, gamma-grid and degree-grid by turns, run
// against one server while a fifth client's cold job fills cells beside
// them, at GOMAXPROCS 8: every reply is all hits and byte-identical to
// what a single client got, and the cold job's reply is what it is on a
// server of its own. The memo, the kept values and the singleflight table
// are all shared here; under -race this is their concurrency test.
func TestSweepConcurrentWarmClientsByteIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	warm := SweepJobParams{Nodes: 16, Rounds: 2, Seed: 7, Degrees: []int{4, 6}}
	cold := SweepJobParams{Nodes: 16, Rounds: 2, Seed: 8}

	_, alone := startSweepServer(t, sweep.NewMemStore(0), &identityMemo{})
	coldWant, _, err := alone.Do(JobGammaGrid, cold, nil)
	if err != nil {
		t.Fatal(err)
	}

	srv, first := startSweepServer(t, sweep.NewMemStore(0), &identityMemo{})
	want := map[string]json.RawMessage{}
	for _, kind := range []string{JobGammaGrid, JobDegreeGrid, JobGammaGrid, JobDegreeGrid} {
		raw, _, err := first.Do(kind, warm, nil) // the second pass is the warm, single-client reply
		if err != nil {
			t.Fatal(err)
		}
		want[kind] = raw
	}

	var wg sync.WaitGroup
	for client := 0; client < 4; client++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := sweep.Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				kind := []string{JobGammaGrid, JobDegreeGrid}[(client+i)%2]
				raw, st, err := c.Do(kind, warm, nil)
				if err != nil || !st.AllHits() || string(raw) != string(want[kind]) {
					t.Errorf("client %d request %d (%s): stats %+v, err %v, reply identical to the single client's: %v",
						client, i, kind, st, err, string(raw) == string(want[kind]))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := sweep.Dial(srv.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		raw, st, err := c.Do(JobGammaGrid, cold, nil)
		if err != nil || st.Misses != 80 || string(raw) != string(coldWant) {
			t.Errorf("cold job beside the warm clients: stats %+v, err %v, reply identical to a lone server's: %v", st, err, string(raw) == string(coldWant))
		}
	}()
	wg.Wait()
}
