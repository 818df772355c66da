package sweep

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// Stats counts cell outcomes for one scope (one Runner handle): Hits were
// served from the store, Misses were computed (and cached when keyed),
// Shared piggybacked on an identical in-flight computation. Cells counts
// successful cells only — a failed compute is reported as an error, never
// as a statistic.
type Stats struct {
	Cells  int `json:"cells"`
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	Shared int `json:"shared"`
}

// AllHits reports whether every cell was served from the cache — the
// assertion gridsearch -expect-all-hits makes.
func (s Stats) AllHits() bool { return s.Cells > 0 && s.Hits == s.Cells }

func (s Stats) String() string {
	return fmt.Sprintf("cells=%d hits=%d misses=%d shared=%d", s.Cells, s.Hits, s.Misses, s.Shared)
}

// flight is one in-progress computation other waiters can share.
type flight struct {
	done chan struct{}
	res  CellResult
	err  error
}

// runnerCore is the shared scheduler state: the store, the worker bound,
// and the in-flight dedup table. Every Runner handle scoped off one core
// shares its cache and singleflight, so overlapping grids from different
// clients dedupe against each other.
type runnerCore struct {
	store Store
	pool  *par.Pool

	mu       sync.Mutex
	inflight map[CellKey]*flight
}

// Runner schedules memoized cells: Grid calls fan compute bodies across
// the pool, serve cached cells from the store, and collapse concurrent
// identical cells into one computation. A Runner handle carries its own
// Stats and progress probe; Scope derives additional handles over the
// same cache for per-job accounting.
//
// A nil *Runner is valid wherever a Runner is accepted and degrades to a
// plain uncached pool fan-out — experiments thread an optional Runner
// without nil checks.
type Runner struct {
	core  *runnerCore
	probe *obs.Probe

	mu    sync.Mutex
	stats Stats
}

// NewRunner builds a runner over a store (nil = no caching) and a pool
// (nil = GOMAXPROCS-wide default).
func NewRunner(store Store, pool *par.Pool) *Runner {
	return &Runner{core: &runnerCore{store: store, pool: pool, inflight: map[CellKey]*flight{}}}
}

// Scope returns a handle sharing this runner's cache, singleflight table,
// and pool, but with fresh Stats and the given progress probe. The server
// scopes one handle per job so each client sees its own hit/miss counts
// and progress stream.
func (r *Runner) Scope(probe *obs.Probe) *Runner {
	if r == nil {
		return &Runner{probe: probe}
	}
	return &Runner{core: r.core, probe: probe}
}

// Stats returns the counts accumulated by Grid calls on this handle.
func (r *Runner) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

func (r *Runner) record(verdict string, k CellKey, wallNs int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.stats.Cells++
	switch verdict {
	case "hit":
		r.stats.Hits++
	case "shared":
		r.stats.Shared++
	default:
		r.stats.Misses++
	}
	r.mu.Unlock()
	if r.probe.Enabled() && k.Valid() {
		r.probe.Emit(obs.Event{
			Kind: obs.KindCell, Round: -1, Node: -1,
			Label:  verdict + " " + k.String(),
			WallNs: wallNs,
		})
	}
}

// Grid runs n cells through the scheduler and returns their values in
// index order. key(i) derives cell i's cache identity (a zero key or nil
// key func marks it uncacheable); compute(i) produces the value on a
// miss.
//
// Cached and computed cells are interchangeable bit-for-bit: on a miss
// the value is JSON-encoded, stored, and decoded back from those same
// bytes, so out[i] is identical whether this call computed the cell or a
// previous run did. Errors are never cached; like par.Pool.ForErr, every cell
// runs to completion and the lowest-index error is returned.
//
// A cell is decoded once: when T is plain data — no pointer, slice, map,
// interface, chan or func anywhere in it; strings are immutable and fine —
// the memory tier keeps the decoded value beside its bytes and the next
// hit copies it out. It is decode(payload) by construction, so the
// paragraph above stays true. A T that holds a reference would share its
// backing store between requests and is decoded every time; a kept value
// of another type is decoded over.
func Grid[T any](r *Runner, n int, key func(i int) CellKey, compute func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	var core *runnerCore
	if r != nil {
		core = r.core
	}
	if core == nil {
		core = &runnerCore{inflight: map[CellKey]*flight{}}
	}
	var keeper valueKeeper // the memory tier, when it may keep a T
	if plainData(reflect.TypeFor[T]()) {
		keeper, _ = core.store.(valueKeeper)
	}
	err := core.pool.ForErr(n, 0, func(i int) error {
		var k CellKey
		if key != nil {
			k = key(i)
		}
		if !k.Valid() {
			start := time.Now()
			v, err := compute(i)
			if err != nil {
				return err
			}
			out[i] = v
			r.record("miss", k, time.Since(start).Nanoseconds())
			return nil
		}
		res, verdict, err := core.cell(k, func() ([]byte, error) {
			v, err := compute(i)
			if err != nil {
				return nil, err
			}
			b, err := json.Marshal(v)
			if err != nil {
				return nil, fmt.Errorf("sweep: encode cell %s: %w", k, err)
			}
			return b, nil
		})
		if err != nil {
			return err
		}
		if v, ok := res.value.(T); ok {
			out[i] = v
		} else {
			if err := json.Unmarshal(res.Payload, &out[i]); err != nil {
				return fmt.Errorf("sweep: decode cell %s: %w", k, err)
			}
			if keeper != nil {
				keeper.keep(k, res.Payload, out[i])
			}
		}
		r.record(verdict, k, res.ElapsedNs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// plainData reports whether copies of a t made by assignment share nothing.
func plainData(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return plainData(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !plainData(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return t.Kind() <= reflect.Complex128 || t.Kind() == reflect.String // the scalar kinds
}

// cell resolves one keyed cell: store hit, shared in-flight computation,
// or a fresh compute that is stored before anyone else can observe it.
func (c *runnerCore) cell(k CellKey, computeRaw func() ([]byte, error)) (res CellResult, verdict string, err error) {
	if c.store != nil {
		res, ok, err := c.store.Get(k)
		if err != nil || ok {
			return res, "hit", err
		}
	}
	c.mu.Lock()
	if c.inflight == nil {
		c.inflight = map[CellKey]*flight{}
	}
	if f, ok := c.inflight[k]; ok {
		c.mu.Unlock()
		<-f.done
		return f.res, "shared", f.err
	}
	// Double-check the store under the lock: a flight for k may have
	// completed (Put + deregister) between our miss above and here, and
	// computing again would waste the work singleflight exists to save.
	if c.store != nil {
		res, ok, gerr := c.store.Get(k)
		if gerr != nil || ok {
			c.mu.Unlock()
			return res, "hit", gerr
		}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[k] = f
	c.mu.Unlock()

	start := time.Now()
	f.res.Key = k
	f.res.Payload, f.err = computeRaw()
	f.res.ElapsedNs = time.Since(start).Nanoseconds()
	if f.err == nil && c.store != nil {
		f.err = c.store.Put(f.res)
	}
	c.mu.Lock()
	delete(c.inflight, k)
	c.mu.Unlock()
	close(f.done)
	return f.res, "miss", f.err
}
