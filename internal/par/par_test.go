package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, minSerial := range []int{0, 1000} { // parallel and serial paths
		counts := make([]int64, 257)
		ForOn(len(counts), minSerial, counts, func(counts []int64, i int) { atomic.AddInt64(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("minSerial=%d: index %d visited %d times", minSerial, i, c)
			}
		}
	}
	ForOn(0, 0, t, func(t *testing.T, _ int) { t.Fatal("must not call fn for n=0") })
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	for _, minSerial := range []int{0, 1000} { // parallel and serial paths
		var calls int64
		err := (*Pool)(nil).ForErr(64, minSerial, func(i int) error {
			atomic.AddInt64(&calls, 1)
			if i == 7 || i == 41 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 7 failed" {
			t.Fatalf("minSerial=%d: err = %v, want the lowest-index error", minSerial, err)
		}
		// No early cancellation: every index still ran.
		if calls != 64 {
			t.Fatalf("minSerial=%d: %d calls, want 64", minSerial, calls)
		}
	}
}

func TestForErrNilOnSuccess(t *testing.T) {
	if err := (*Pool)(nil).ForErr(16, 0, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := (*Pool)(nil).ForErr(0, 0, func(int) error { return errors.New("no") }); err != nil {
		t.Fatal("n=0 must not call fn")
	}
}

// A bounded pool must never run more bodies concurrently than its worker
// count, and must still cover every index exactly once.
func TestPoolBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		if got := p.Workers(); got != workers {
			t.Fatalf("NewPool(%d).Workers() = %d", workers, got)
		}
		var inFlight, peak int64
		counts := make([]int64, 200)
		p.For(len(counts), 0, func(i int) {
			cur := atomic.AddInt64(&inFlight, 1)
			for {
				old := atomic.LoadInt64(&peak)
				if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
					break
				}
			}
			atomic.AddInt64(&counts[i], 1)
			atomic.AddInt64(&inFlight, -1)
		})
		if peak > int64(workers) {
			t.Fatalf("workers=%d: observed %d concurrent bodies", workers, peak)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

// Results written to per-index slots must be identical across worker
// counts — the order-independence contract the sweep scheduler relies on.
func TestPoolResultsOrderIndependent(t *testing.T) {
	compute := func(p *Pool) ([]float64, error) {
		out := make([]float64, 128)
		err := p.ForErr(len(out), 0, func(i int) error {
			out[i] = float64(i*i) / 7
			if i%31 == 5 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		return out, err
	}
	ref, refErr := compute(NewPool(1))
	for _, workers := range []int{2, 4, 16} {
		got, err := compute(NewPool(workers))
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("workers=%d: err = %v, serial err = %v", workers, err, refErr)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d] = %v, serial = %v", workers, i, got[i], ref[i])
			}
		}
	}
}

// Nil and zero-valued pools fall back to the GOMAXPROCS-wide default, so
// an optional *Pool field needs no nil checks at call sites.
func TestNilPoolActsAsDefault(t *testing.T) {
	var p *Pool
	if p.Workers() < 1 {
		t.Fatalf("nil pool workers = %d", p.Workers())
	}
	var calls int64
	p.For(32, 0, func(int) { atomic.AddInt64(&calls, 1) })
	if calls != 32 {
		t.Fatalf("nil pool ran %d of 32 bodies", calls)
	}
	zero := &Pool{}
	if zero.Workers() < 1 {
		t.Fatalf("zero pool workers = %d", zero.Workers())
	}
	if NewPool(-3).Workers() < 1 {
		t.Fatal("negative worker count must clamp to the default")
	}
}
