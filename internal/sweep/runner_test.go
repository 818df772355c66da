package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/par"
)

type cellValue struct {
	Index int     `json:"index"`
	Acc   float64 `json:"acc"`
}

func gridKeys(n int, rev string) func(int) CellKey {
	return func(i int) CellKey {
		k := mustKey(uint64(i), "grid")
		if rev != "" {
			k.Revision = rev
		}
		return k
	}
}

func computeCell(calls *int64) func(int) (cellValue, error) {
	return func(i int) (cellValue, error) {
		atomic.AddInt64(calls, 1)
		return cellValue{Index: i, Acc: float64(i) / 7}, nil
	}
}

func TestGridMissThenHit(t *testing.T) {
	store := NewMemStore(0)
	var calls int64

	cold := NewRunner(store, nil)
	got, err := Grid(cold, 8, gridKeys(8, ""), computeCell(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 8 {
		t.Fatalf("cold run computed %d cells, want 8", calls)
	}
	st := cold.Stats()
	if st.Cells != 8 || st.Misses != 8 || st.Hits != 0 {
		t.Fatalf("cold stats %+v", st)
	}

	warm := NewRunner(store, nil)
	got2, err := Grid(warm, 8, gridKeys(8, ""), computeCell(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 8 {
		t.Fatalf("warm run recomputed: %d total calls", calls)
	}
	st = warm.Stats()
	if !st.AllHits() || st.Hits != 8 {
		t.Fatalf("warm stats %+v", st)
	}
	for i := range got {
		if got[i] != got2[i] {
			t.Fatalf("cell %d: warm %+v != cold %+v", i, got2[i], got[i])
		}
	}
}

// A forced revision change must invalidate every cell: same configs, new
// code, fresh computes.
func TestGridRevisionChangeInvalidates(t *testing.T) {
	store := NewMemStore(0)
	var calls int64
	r1 := NewRunner(store, nil)
	if _, err := Grid(r1, 4, gridKeys(4, "rev-a"), computeCell(&calls)); err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(store, nil)
	if _, err := Grid(r2, 4, gridKeys(4, "rev-b"), computeCell(&calls)); err != nil {
		t.Fatal(err)
	}
	if calls != 8 {
		t.Fatalf("revision change served stale cells: %d computes, want 8", calls)
	}
	if st := r2.Stats(); st.Hits != 0 || st.Misses != 4 {
		t.Fatalf("stats after revision change %+v", st)
	}
	// And the old revision still hits — invalidation is structural.
	r3 := NewRunner(store, nil)
	if _, err := Grid(r3, 4, gridKeys(4, "rev-a"), computeCell(&calls)); err != nil {
		t.Fatal(err)
	}
	if st := r3.Stats(); !st.AllHits() {
		t.Fatalf("old revision stopped hitting: %+v", st)
	}
}

// Concurrent identical cells collapse into one computation (singleflight)
// even before anything lands in the store.
func TestGridSingleflightSharesInflightCells(t *testing.T) {
	store := NewMemStore(0)
	r := NewRunner(store, par.NewPool(8))
	var calls int64
	started := make(chan struct{})
	var once sync.Once
	sameKey := mustKey(42, "shared")
	got, err := Grid(r, 8,
		func(int) CellKey { return sameKey },
		func(i int) (cellValue, error) {
			atomic.AddInt64(&calls, 1)
			once.Do(func() { close(started) })
			<-started // hold all entrants at the same point
			return cellValue{Index: 999, Acc: 0.5}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("%d computes for one key, want 1 (singleflight)", calls)
	}
	for i, v := range got {
		if v.Index != 999 {
			t.Fatalf("cell %d got %+v", i, v)
		}
	}
	st := r.Stats()
	if st.Misses != 1 || st.Hits+st.Shared != 7 || st.Cells != 8 {
		t.Fatalf("singleflight stats %+v", st)
	}
}

// Errors surface like par.Pool.ForErr (lowest index wins, every cell runs) and
// are never cached.
func TestGridErrorsNotCachedLowestIndexWins(t *testing.T) {
	store := NewMemStore(0)
	var calls int64
	fail := func(i int) (cellValue, error) {
		atomic.AddInt64(&calls, 1)
		if i == 2 || i == 5 {
			return cellValue{}, fmt.Errorf("cell %d failed", i)
		}
		return cellValue{Index: i}, nil
	}
	r := NewRunner(store, nil)
	_, err := Grid(r, 8, gridKeys(8, ""), fail)
	if err == nil || err.Error() != "cell 2 failed" {
		t.Fatalf("err = %v, want lowest-index cell error", err)
	}
	if calls != 8 {
		t.Fatalf("%d calls, want 8 (no early cancellation)", calls)
	}
	// The failed cells retry next run; successes were cached.
	calls = 0
	r2 := NewRunner(store, nil)
	if _, err := Grid(r2, 8, gridKeys(8, ""), computeCell(&calls)); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("%d recomputes, want exactly the 2 failed cells", calls)
	}
}

// Nil runners and invalid keys degrade to a plain uncached fan-out.
func TestGridUncachedFallbacks(t *testing.T) {
	var calls int64
	got, err := Grid[cellValue](nil, 4, nil, computeCell(&calls))
	if err != nil || len(got) != 4 {
		t.Fatalf("nil runner: %v (%d cells)", err, len(got))
	}
	r := NewRunner(NewMemStore(0), nil)
	for range 2 {
		if _, err := Grid(r, 4, func(int) CellKey { return CellKey{} }, computeCell(&calls)); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 12 {
		t.Fatalf("%d computes, want 12 (invalid keys never cache)", calls)
	}
	if st := r.Stats(); st.Hits != 0 || st.Misses != 8 {
		t.Fatalf("uncached stats %+v", st)
	}
}

// Hit payload bytes are exactly the bytes the original compute produced:
// decode(payload) == the freshly computed value for JSON-clean types.
func TestGridHitBytesIdenticalToCompute(t *testing.T) {
	store := NewMemStore(0)
	var calls int64
	r := NewRunner(store, nil)
	if _, err := Grid(r, 3, gridKeys(3, ""), computeCell(&calls)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		k := gridKeys(3, "")(i)
		res, ok, err := store.Get(k)
		if !ok || err != nil {
			t.Fatalf("cell %d not stored", i)
		}
		fresh, _ := json.Marshal(cellValue{Index: i, Acc: float64(i) / 7})
		if string(res.Payload) != string(fresh) {
			t.Fatalf("cell %d payload %s != fresh encode %s", i, res.Payload, fresh)
		}
	}
}

// Scoped handles share the cache but account separately, and the probe
// sees one cell event per cell with the hit/miss verdict.
func TestScopedStatsAndProbeEvents(t *testing.T) {
	store := NewMemStore(0)
	base := NewRunner(store, nil)
	var calls int64

	sink := &obstest.MemorySink{}
	scoped := base.Scope(obs.NewProbe(sink))
	if _, err := Grid(scoped, 4, gridKeys(4, ""), computeCell(&calls)); err != nil {
		t.Fatal(err)
	}
	scoped2 := base.Scope(nil)
	if _, err := Grid(scoped2, 4, gridKeys(4, ""), computeCell(&calls)); err != nil {
		t.Fatal(err)
	}
	if st := scoped.Stats(); st.Misses != 4 || st.Cells != 4 {
		t.Fatalf("first scope stats %+v", st)
	}
	if st := scoped2.Stats(); !st.AllHits() {
		t.Fatalf("second scope stats %+v", st)
	}
	if base.Stats().Cells != 0 {
		t.Fatalf("base handle must not absorb scoped stats: %+v", base.Stats())
	}
	evs := sink.Events()
	if len(evs) != 4 {
		t.Fatalf("%d probe events, want 4", len(evs))
	}
	for _, ev := range evs {
		if ev.Kind != obs.KindCell || !strings.HasPrefix(ev.Label, "miss ") {
			t.Fatalf("unexpected event %+v", ev)
		}
	}
}

// A cell file that no longer decodes is one miss, not a grid that fails
// for ever: the damaged cell is recomputed to the same value and
// rewritten, the other cells still hit, and the rerun after that is all
// hits again. Each run gets a fresh memory tier over the same directory,
// like a daemon restart.
func TestGridCorruptCellFileIsOneMiss(t *testing.T) {
	disk := newFileStore(t)
	var calls int64
	run := func() ([]cellValue, Stats) {
		t.Helper()
		r := NewRunner(Tiered(NewMemStore(0), disk), nil)
		got, err := Grid(r, 8, gridKeys(8, ""), computeCell(&calls))
		if err != nil {
			t.Fatal(err)
		}
		return got, r.Stats()
	}
	cold, st := run()
	if st.Misses != 8 {
		t.Fatalf("cold stats %+v", st)
	}

	path := filepath.Join(disk.dir, gridKeys(8, "")(5).fileName())
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	healed, st := run()
	if st.Misses != 1 || st.Hits != 7 || calls != 9 {
		t.Fatalf("run over a truncated cell file: stats %+v, %d computes; want 1 miss, 7 hits, 9 computes", st, calls)
	}
	again, st := run()
	if !st.AllHits() || calls != 9 {
		t.Fatalf("run after the rewrite: stats %+v, %d computes; want all hits", st, calls)
	}
	for i := range cold {
		if healed[i] != cold[i] || again[i] != cold[i] {
			t.Fatalf("cell %d: cold %+v, healed %+v, again %+v", i, cold[i], healed[i], again[i])
		}
	}
	if b, err := os.ReadFile(path + ".corrupt"); err != nil || len(b) != len(whole)/2 {
		t.Fatalf("truncated file not kept aside: %d bytes, %v", len(b), err)
	}
}

// countedCell is plain data whose decodes are counted, so a test can tell a
// hit that copied a kept value from one that ran encoding/json.
type countedCell struct {
	Index int     `json:"index"`
	Acc   float64 `json:"acc"`
}

var countedDecodes atomic.Int64

func (c *countedCell) UnmarshalJSON(b []byte) error {
	countedDecodes.Add(1)
	type plain countedCell
	return json.Unmarshal(b, (*plain)(c))
}

// countedGrid runs n cells over store and returns them with the number of
// payload decodes the run made.
func countedGrid(t *testing.T, store Store, n int) ([]countedCell, int64) {
	t.Helper()
	before := countedDecodes.Load()
	got, err := Grid(NewRunner(store, nil), n, gridKeys(n, ""), func(i int) (countedCell, error) {
		return countedCell{Index: i, Acc: float64(i) / 7}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, countedDecodes.Load() - before
}

// TestGridDecodesACellOnce holds the typed tier to the contract it must not
// bend: the kept value is decode(payload), it lives and dies with those
// bytes, only the memory tier holds it, and the first hit after anything
// that dropped it decodes again.
func TestGridDecodesACellOnce(t *testing.T) {
	const n = 6
	for _, tc := range []struct {
		name  string
		store func(t *testing.T) Store
		kept  bool
	}{
		{"memory", func(*testing.T) Store { return NewMemStore(0) }, true},
		{"tiered", func(t *testing.T) Store { return Tiered(NewMemStore(0), newFileStore(t)) }, true},
		{"file only", func(t *testing.T) Store { return newFileStore(t) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := tc.store(t)
			warmDecodes := int64(n) // a store that keeps no value decodes every hit
			if tc.kept {
				warmDecodes = 0
			}
			cold, decodes := countedGrid(t, store, n)
			if decodes != n {
				t.Fatalf("cold run decoded %d payloads, want %d: a miss decodes back from the stored bytes", decodes, n)
			}
			for run := 0; run < 2; run++ {
				warm, decodes := countedGrid(t, store, n)
				if decodes != warmDecodes {
					t.Fatalf("warm run %d decoded %d payloads, want %d", run, decodes, warmDecodes)
				}
				for i := range cold {
					if warm[i] != cold[i] {
						t.Fatalf("warm run %d, cell %d: %+v, cold %+v", run, i, warm[i], cold[i])
					}
				}
			}
			for i := 0; i < n; i++ {
				res, ok, err := store.Get(gridKeys(n, "")(i))
				if !ok || err != nil {
					t.Fatalf("cell %d: ok=%v err=%v", i, ok, err)
				}
				var decoded countedCell
				if err := json.Unmarshal(res.Payload, &decoded); err != nil {
					t.Fatal(err)
				}
				if kept, ok := res.value.(countedCell); ok != tc.kept || (ok && kept != decoded) {
					t.Fatalf("cell %d: kept value %+v (%v), decode(payload) %+v, want kept=%v", i, res.value, ok, decoded, tc.kept)
				}
			}

			// New bytes under a key drop the old value with the old bytes.
			k := gridKeys(n, "")(2)
			if err := store.Put(CellResult{Key: k, Payload: json.RawMessage(`{"index":2,"acc":0.5}`)}); err != nil {
				t.Fatal(err)
			}
			for run, want := range []int64{max(warmDecodes, 1), warmDecodes} { // only the replaced cell lost its value
				got, decodes := countedGrid(t, store, n)
				if got[2] != (countedCell{Index: 2, Acc: 0.5}) || got[1] != cold[1] {
					t.Fatalf("run %d after Put: cells %+v", run, got[1:3])
				}
				if decodes != want {
					t.Fatalf("run %d after Put decoded %d payloads, want %d", run, decodes, want)
				}
			}
		})
	}
}

// Eviction drops a kept value with its entry and a restarted daemon starts
// with none: the first hit after either decodes, the second does not.
func TestGridDecodesAgainAfterEvictionAndRestart(t *testing.T) {
	disk := newFileStore(t)
	mem := NewMemStore(1)
	store := Tiered(mem, disk)
	if _, decodes := countedGrid(t, store, 1); decodes != 1 {
		t.Fatalf("cold run decoded %d payloads", decodes)
	}
	if _, decodes := countedGrid(t, store, 1); decodes != 0 {
		t.Fatalf("warm run decoded %d payloads", decodes)
	}
	if err := mem.Put(CellResult{Key: mustKey(99, "evictor"), Payload: json.RawMessage(`1`)}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := mem.Get(gridKeys(1, "")(0)); ok || mem.Len() != 1 {
		t.Fatal("the cell was not evicted from the memory tier")
	}
	for _, stage := range []struct {
		name  string
		store Store
	}{{"eviction", store}, {"restart", Tiered(NewMemStore(0), disk)}} {
		for run, want := range []int64{1, 0} {
			got, decodes := countedGrid(t, stage.store, 1)
			if decodes != want || got[0] != (countedCell{}) {
				t.Fatalf("hit %d after %s: %d decodes (want %d), cell %+v", run, stage.name, decodes, want, got[0])
			}
		}
	}
}

// A cell type that holds a reference is never kept: every hit decodes its
// own copy, so a caller that writes through one cannot reach another's.
// And a value kept for one type is not served as another.
func TestGridNeverKeepsOrCrossesTypes(t *testing.T) {
	type sliceCell struct {
		Vals []int `json:"vals"`
	}
	store := NewMemStore(0)
	run := func() []sliceCell {
		got, err := Grid(NewRunner(store, nil), 3, gridKeys(3, "slices"), func(i int) (sliceCell, error) {
			return sliceCell{Vals: []int{i, i + 1}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	run()
	first := run()
	first[1].Vals[0] = 99
	if again := run(); again[1].Vals[0] != 1 || &again[1].Vals[0] == &first[1].Vals[0] {
		t.Fatalf("a hit saw another request's write: %+v", again[1])
	}
	if res, _, _ := store.Get(gridKeys(3, "slices")(1)); res.value != nil {
		t.Fatalf("a value with a slice in it was kept: %+v", res.value)
	}
	for typ, want := range map[reflect.Type]bool{
		reflect.TypeFor[countedCell](): true,
		reflect.TypeFor[[2]struct {
			S string
			C complex64
		}](): true,
		reflect.TypeFor[sliceCell]():            false,
		reflect.TypeFor[struct{ P *int }]():     false,
		reflect.TypeFor[[1]map[string]int]():    false,
		reflect.TypeFor[struct{ E error }]():    false,
		reflect.TypeFor[struct{ F func() }]():   false,
		reflect.TypeFor[struct{ C chan int }](): false,
	} {
		if plainData(typ) != want {
			t.Errorf("plainData(%v) = %v", typ, !want)
		}
	}

	// cellValue and countedCell share a wire shape and here a key.
	var calls int64
	if _, err := Grid(NewRunner(store, nil), 3, gridKeys(3, ""), computeCell(&calls)); err != nil {
		t.Fatal(err)
	}
	if got, decodes := countedGrid(t, store, 3); decodes != 3 || got[2] != (countedCell{Index: 2, Acc: 2.0 / 7}) {
		t.Fatalf("a grid of another type over kept cellValues: %d decodes, %+v", decodes, got[2])
	}
	if _, decodes := countedGrid(t, store, 3); decodes != 0 {
		t.Fatalf("the second grid of the new type decoded %d payloads", decodes)
	}
}
