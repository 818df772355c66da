// Package par holds the engine's worker fan-out primitive, shared by the
// simulation phases (internal/sim), the learner's evaluation
// (internal/learner), and the sweep scheduler (internal/sweep). Callers
// guarantee fn(i) touches index-i state only, which makes results
// bit-identical to a serial loop regardless of worker count or scheduling.
package par

import (
	"runtime"
	"sync"
)

// Pool is a bounded fan-out executor: every For/ForErr call it serves runs
// at most Workers() bodies concurrently. The zero value and a nil *Pool
// both behave like NewPool(0) — one worker per GOMAXPROCS, resolved at
// call time — so callers can thread an optional *Pool without nil checks.
//
// A Pool carries no goroutines or queues of its own; it is a concurrency
// bound, cheap to copy and safe for concurrent use. Determinism contract:
// results and errors land in per-index slots, so the outcome of a call is
// independent of the worker count and of scheduling order.
type Pool struct {
	workers int
}

// NewPool returns a pool bounded to the given worker count. workers <= 0
// means "track GOMAXPROCS at call time", as ForOn does.
func NewPool(workers int) *Pool {
	if workers < 0 {
		workers = 0
	}
	return &Pool{workers: workers}
}

// Workers reports the concurrency bound: the configured worker count, or
// the current GOMAXPROCS for an unbounded (zero/nil) pool.
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.workers
}

// For runs fn(0..n-1) across the pool's workers and waits. Workloads with
// fewer than minSerial items take the serial path outright (use 0 to always
// fan out). Every index costs a channel receive: about 160–250 ns an index
// at GOMAXPROCS 2 on a 2-vCPU host, measured on a battery close-out whose
// body takes 50–60 ns (215–300 ns an index fanned out). A caller whose
// body takes under a microsecond runs it in a plain loop instead.
func (p *Pool) For(n, minSerial int, fn func(i int)) {
	forIndices(p, n, minSerial, fn, call)
}

// ForErr is For with a fallible body: every fn(i) runs to completion (no
// early cancellation, so side effects into preallocated index-i slots stay
// deterministic) and the lowest-index error is returned. Errors land in
// per-index slots, which keeps the result independent of worker count and
// scheduling — the property the experiment grids pin with their
// GOMAXPROCS tests.
func (p *Pool) ForErr(n, minSerial int, fn func(i int) error) error {
	errs := make([]error, n)
	p.For(n, minSerial, func(i int) {
		errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForOn runs fn(t, 0..n-1) on the default (GOMAXPROCS-wide) pool, as
// Pool.For runs fn(i): a method expression and its receiver make no
// closure, so on the serial path it allocates nothing.
func ForOn[T any](n, minSerial int, t T, fn func(t T, i int)) {
	forIndices(nil, n, minSerial, t, fn)
}

func call(fn func(int), i int) { fn(i) }

func forIndices[T any](p *Pool, n, minSerial int, t T, fn func(T, int)) {
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minSerial {
		for i := 0; i < n; i++ {
			fn(t, i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(t, i)
			}
		}()
	}
	wg.Wait()
}
