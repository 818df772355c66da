// Package dataset provides the data substrate of the reproduction:
// synthetic classification datasets with the label structure of CIFAR-10
// and FEMNIST, plus the paper's non-IID partitioning schemes.
//
// Real CIFAR-10/FEMNIST images cannot be used here (the build is offline
// and CPU-bound). Instead, each class c draws a random
// prototype vector mu_c and samples are mu_c + noise. That preserves what
// the paper's experiments actually rely on: samples of the same class
// cluster, classes are separable but overlapping, and a node that trains on
// 2 of 10 labels drifts toward a biased model that mixing must correct.
package dataset

import (
	"fmt"
	"sync"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Sample is one labeled example.
type Sample struct {
	X tensor.Vector
	Y int
}

// Dataset is an in-memory set of samples with shared metadata.
type Dataset struct {
	Samples     []Sample
	NumClasses  int
	Dim         int
	fingerprint uint64
	columns     sync.Once // makes xs and ys on the first Inputs or Labels
	xs          []tensor.Vector
	ys          []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Fingerprint identifies d by every field of the config that drew it and
// which split, shard or writer of the draw it is (0: built otherwise). A
// twin of each stamping function computes it from configs alone.
func (d *Dataset) Fingerprint() uint64 { return d.fingerprint }

// mix folds vs into h, FNV-1a over their little-endian bytes.
func mix(h uint64, vs ...uint64) uint64 {
	for _, v := range vs {
		for k := 0; k < 64; k += 8 {
			h = (h ^ v>>k&0xff) * 1099511628211
		}
	}
	return h
}

// Inputs returns the sample inputs as a slice of vectors (views, not
// copies), made once and shared: callers only read it, and Samples must
// not change after the first call.
func (d *Dataset) Inputs() []tensor.Vector {
	d.columns.Do(d.fillColumns)
	return d.xs
}

// Labels returns the sample labels, shared as Inputs is.
func (d *Dataset) Labels() []int {
	d.columns.Do(d.fillColumns)
	return d.ys
}

func (d *Dataset) fillColumns() {
	d.xs, d.ys = make([]tensor.Vector, len(d.Samples)), make([]int, len(d.Samples))
	for i, s := range d.Samples {
		d.xs[i], d.ys[i] = s.X, s.Y
	}
}

// ClassHistogram returns the per-class sample counts.
func (d *Dataset) ClassHistogram() []int {
	h := make([]int, d.NumClasses)
	for _, s := range d.Samples {
		h[s.Y]++
	}
	return h
}

// Split partitions d into two datasets of sizes n and Len()-n, in order.
// It panics if n is out of range. The paper builds its validation set this
// way: "extracting 50% of the samples from the test set" (Section 4.2).
func (d *Dataset) Split(n int) (*Dataset, *Dataset) {
	if n < 0 || n > d.Len() {
		panic(fmt.Sprintf("dataset: split point %d out of range [0,%d]", n, d.Len()))
	}
	fa, fb := SplitFingerprints(d.fingerprint, n)
	a := &Dataset{NumClasses: d.NumClasses, Dim: d.Dim, Samples: d.Samples[:n], fingerprint: fa}
	b := &Dataset{NumClasses: d.NumClasses, Dim: d.Dim, Samples: d.Samples[n:], fingerprint: fb}
	return a, b
}

// SplitFingerprints are the fingerprints Split(n) stamps on the two parts of
// a dataset of fingerprint fp.
func SplitFingerprints(fp uint64, n int) (a, b uint64) {
	return mix(fp, uint64(n), 0), mix(fp, uint64(n), 1)
}

// Batcher yields minibatches by sampling without replacement per epoch,
// reshuffling when exhausted — the standard SGD data order.
type Batcher struct {
	ds    *Dataset
	r     *rng.RNG
	order []int
	pos   int
	xs    []tensor.Vector
	ys    []int
}

// NewBatcher creates a batcher over ds with its own RNG stream.
func NewBatcher(ds *Dataset, r *rng.RNG) *Batcher {
	return new(Batcher).init(ds, r, make([]int, ds.Len()), nil, nil)
}

// Batchers is a batcher per dataset, Of[i] over ds[i], whose permutations
// and batch slices are windows of three slabs.
type Batchers struct {
	Of    []Batcher
	order []int
	xs    []tensor.Vector
	ys    []int
}

// NewBatchers is NewBatcher+Reserve(size) over every ds[i] with stream rs[i],
// built into into's storage: its four slices grow only when ds needs more,
// so into's zero value costs four allocations and a set of the same shape
// again none. Every batcher starts on its first epoch as a new one would.
func NewBatchers(into Batchers, ds []*Dataset, rs []rng.RNG, size int) Batchers {
	total, reserved := 0, 0
	for _, d := range ds {
		total, reserved = total+d.Len(), reserved+min(size, d.Len())
	}
	bs := Batchers{Of: grow(into.Of, len(ds)), order: grow(into.order, total),
		xs: grow(into.xs, reserved), ys: grow(into.ys, reserved)}
	order, xs, ys := bs.order, bs.xs, bs.ys
	for i, d := range ds {
		n, k := d.Len(), min(size, d.Len())
		bs.Of[i].init(d, &rs[i], order[:n:n], xs[:0:k], ys[:0:k])
		order, xs, ys = order[n:], xs[k:], ys[k:]
	}
	return bs
}

// init starts b on its first epoch (PermTo into order), batching into xs, ys.
func (b *Batcher) init(ds *Dataset, r *rng.RNG, order []int, xs []tensor.Vector, ys []int) *Batcher {
	if ds.Len() == 0 {
		panic("dataset: batcher over empty dataset")
	}
	*b = Batcher{ds: ds, r: r, order: order, xs: xs, ys: ys}
	r.PermTo(order)
	return b
}

// Reserve makes the two slices Next returns, whole, for batches of up to
// size samples: a caller that knows its batch size calls it at set-up, and
// then no Next allocates.
func (b *Batcher) Reserve(size int) {
	if size = min(size, b.ds.Len()); cap(b.xs) < size {
		b.xs, b.ys = make([]tensor.Vector, 0, size), make([]int, 0, size)
	}
}

// Next returns the next minibatch of up to size samples. The returned
// slices are reused across calls.
func (b *Batcher) Next(size int) ([]tensor.Vector, []int) {
	if size <= 0 {
		panic("dataset: non-positive batch size")
	}
	size = min(size, b.ds.Len())
	b.Reserve(size)
	b.xs, b.ys = b.xs[:0], b.ys[:0]
	for len(b.xs) < size {
		if b.pos == len(b.order) {
			b.r.Shuffle(len(b.order), func(i, j int) { b.order[i], b.order[j] = b.order[j], b.order[i] })
			b.pos = 0
		}
		s := b.ds.Samples[b.order[b.pos]]
		b.pos++
		b.xs = append(b.xs, s.X)
		b.ys = append(b.ys, s.Y)
	}
	return b.xs, b.ys
}

// sortByLabel returns sample indices ordered by (label, original index) —
// the deterministic "sort by label" step of the 2-shard partitioner — by a
// stable counting sort over [0, NumClasses). A label outside that range is
// an error.
func sortByLabel(d *Dataset) ([]int, error) {
	n := d.Len()
	buf := make([]int, n+max(d.NumClasses, 0)+1)
	idx, start := buf[:n:n], buf[n:] // start[y+1] counts label y, then start[y] is its first slot
	for i, s := range d.Samples {
		if s.Y < 0 || s.Y >= d.NumClasses {
			return nil, fmt.Errorf("dataset: sample %d has label %d outside [0, %d)", i, s.Y, d.NumClasses)
		}
		start[s.Y+1]++
	}
	for y := 1; y < len(start); y++ {
		start[y] += start[y-1]
	}
	for i, s := range d.Samples {
		idx[start[s.Y]] = i
		start[s.Y]++
	}
	return idx, nil
}

// grow is s with n elements, in s's array when it holds them; the elements
// are s's, not cleared.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}
