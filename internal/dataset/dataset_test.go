package dataset

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func mustGenerate(t *testing.T, cfg SyntheticConfig) (*Dataset, *Dataset) {
	t.Helper()
	train, test, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func TestGenerateSizesAndLabels(t *testing.T) {
	cfg := SyntheticConfig{Classes: 10, Dim: 8, Train: 1000, Test: 200, Noise: 1, Seed: 1}
	train, test := mustGenerate(t, cfg)
	if train.Len() != 1000 || test.Len() != 200 {
		t.Fatalf("sizes: %d/%d", train.Len(), test.Len())
	}
	for _, s := range train.Samples {
		if s.Y < 0 || s.Y >= 10 {
			t.Fatalf("label out of range: %d", s.Y)
		}
		if len(s.X) != 8 {
			t.Fatalf("dim = %d", len(s.X))
		}
	}
}

func TestGenerateBalanced(t *testing.T) {
	cfg := SyntheticConfig{Classes: 4, Dim: 4, Train: 400, Test: 100, Noise: 1, Seed: 2}
	train, test := mustGenerate(t, cfg)
	for _, h := range [][]int{train.ClassHistogram(), test.ClassHistogram()} {
		for c, cnt := range h {
			if cnt != h[0] {
				t.Fatalf("class %d count %d != %d (unbalanced)", c, cnt, h[0])
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := SyntheticConfig{Classes: 10, Dim: 32, Train: 100, Test: 40, Noise: 1.0, Seed: 7}
	a1, b1 := mustGenerate(t, cfg)
	a2, b2 := mustGenerate(t, cfg)
	for i := range a1.Samples {
		if a1.Samples[i].Y != a2.Samples[i].Y || a1.Samples[i].X[0] != a2.Samples[i].X[0] {
			t.Fatal("train generation not deterministic")
		}
	}
	for i := range b1.Samples {
		if b1.Samples[i].Y != b2.Samples[i].Y {
			t.Fatal("test generation not deterministic")
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := SyntheticConfig{Classes: 10, Dim: 32, Train: 50, Test: 20, Noise: 1.0, Seed: 1}
	a, _ := mustGenerate(t, cfg)
	cfg.Seed = 2
	b, _ := mustGenerate(t, cfg)
	same := true
	for i := range a.Samples {
		if a.Samples[i].X[0] != b.Samples[i].X[0] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []SyntheticConfig{
		{Classes: 1, Dim: 4, Train: 10, Test: 10, Noise: 1},
		{Classes: 3, Dim: 0, Train: 10, Test: 10, Noise: 1},
		{Classes: 3, Dim: 4, Train: 0, Test: 10, Noise: 1},
		{Classes: 3, Dim: 4, Train: 10, Test: 10, Noise: -1},
	}
	for i, cfg := range bad {
		if _, _, err := Generate(cfg); err == nil {
			t.Fatalf("case %d: want error", i)
		}
	}
}

func TestSplit(t *testing.T) {
	cfg := SyntheticConfig{Classes: 2, Dim: 2, Train: 10, Test: 10, Noise: 1, Seed: 3}
	_, test := mustGenerate(t, cfg)
	val, tst := test.Split(5)
	if val.Len() != 5 || tst.Len() != 5 {
		t.Fatalf("split sizes %d/%d", val.Len(), tst.Len())
	}
	// Disjointness: paper requires validation and test sets disjoint.
	seen := map[*float64]bool{}
	for _, s := range val.Samples {
		seen[&s.X[0]] = true
	}
	for _, s := range tst.Samples {
		if seen[&s.X[0]] {
			t.Fatal("validation and test overlap")
		}
	}
}

func TestSplitPanics(t *testing.T) {
	d := &Dataset{NumClasses: 2, Dim: 1, Samples: make([]Sample, 3)}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range split should panic")
		}
	}()
	d.Split(4)
}

func TestBatcherCoversEpoch(t *testing.T) {
	cfg := SyntheticConfig{Classes: 2, Dim: 2, Train: 20, Test: 4, Noise: 1, Seed: 4}
	train, _ := mustGenerate(t, cfg)
	b := NewBatcher(train, rng.New(1))
	seen := map[*float64]int{}
	for i := 0; i < 4; i++ {
		xs, _ := b.Next(5)
		if len(xs) != 5 {
			t.Fatalf("batch size %d", len(xs))
		}
		for _, x := range xs {
			seen[&x[0]]++
		}
	}
	// One full epoch: every sample exactly once.
	if len(seen) != 20 {
		t.Fatalf("epoch covered %d distinct samples, want 20", len(seen))
	}
	for _, c := range seen {
		if c != 1 {
			t.Fatal("sample repeated within epoch")
		}
	}
}

func TestBatcherWrapsAround(t *testing.T) {
	cfg := SyntheticConfig{Classes: 2, Dim: 2, Train: 6, Test: 4, Noise: 1, Seed: 5}
	train, _ := mustGenerate(t, cfg)
	b := NewBatcher(train, rng.New(2))
	for i := 0; i < 10; i++ {
		xs, ys := b.Next(4)
		if len(xs) != 4 || len(ys) != 4 {
			t.Fatal("wrap-around batch wrong size")
		}
	}
}

func TestBatcherClampsOversizedBatch(t *testing.T) {
	cfg := SyntheticConfig{Classes: 2, Dim: 2, Train: 3, Test: 4, Noise: 1, Seed: 6}
	train, _ := mustGenerate(t, cfg)
	b := NewBatcher(train, rng.New(3))
	xs, _ := b.Next(10)
	if len(xs) != 3 {
		t.Fatalf("oversized batch returned %d, want clamp to 3", len(xs))
	}
}

func TestBatcherSizesItsSlicesOnce(t *testing.T) {
	cfg := SyntheticConfig{Classes: 2, Dim: 2, Train: 64, Test: 4, Noise: 1, Seed: 7}
	train, _ := mustGenerate(t, cfg)
	// The first call makes the two returned slices, whole; growing them by
	// doubling took ten allocations at batch 16.
	r := rng.New(4)
	build := testing.AllocsPerRun(4, func() { NewBatcher(train, r) })
	first := testing.AllocsPerRun(4, func() { NewBatcher(train, r).Next(16) })
	if first-build != 2 {
		t.Fatalf("first Next(16) made %v allocations, want 2", first-build)
	}
	// Reserve makes them at set-up instead, and the first call then makes none.
	reserve := testing.AllocsPerRun(4, func() { NewBatcher(train, r).Reserve(16) })
	reserved := testing.AllocsPerRun(4, func() { b := NewBatcher(train, r); b.Reserve(16); b.Next(16) })
	if reserve-build != 2 || reserved != reserve {
		t.Fatalf("Reserve(16) made %v allocations and the first Next(16) after it %v, want 2 and 0", reserve-build, reserved-reserve)
	}
	b := NewBatcher(train, r)
	xs, _ := b.Next(16)
	if again := testing.AllocsPerRun(8, func() { b.Next(16) }); again != 0 {
		t.Fatalf("a later Next(16) made %v allocations", again)
	}
	if ys, _ := b.Next(16); &ys[0] != &xs[0] {
		t.Fatal("Next returned a fresh slice instead of reusing its own")
	}
}

// NewBatchers' slab batchers equal NewBatcher+Reserve ones batch for batch
// over three epochs of every shard, a shard shorter than the batch among
// them, while all of them draw in turn: a batcher writing its neighbour's
// window of the permutation or batch slabs shows as a wrong batch. The
// whole set costs four allocations, and Next none. Rebuilt into its own
// storage after a draw, the set allocates nothing and batches the same again.
func TestNewBatchersMatchNewBatcher(t *testing.T) {
	cfg := SyntheticConfig{Classes: 4, Dim: 3, Train: 64, Test: 4, Noise: 1, Seed: 8}
	train, _ := mustGenerate(t, cfg)
	var shards []*Dataset
	for _, w := range [][2]int{{0, 3}, {3, 5}, {8, 17}, {25, 39}} {
		idx := make([]int, w[1])
		for i := range idx {
			idx[i] = w[0] + i
		}
		shards = append(shards, train.Subset(idx))
	}
	const size = 5
	rs := make([]rng.RNG, len(shards))
	for i := range rs {
		rng.DeriveTo(&rs[i], 9, uint64(i), 0xba7c4)
	}
	bs := NewBatchers(Batchers{}, shards, rs, size)
	for pass := range 2 {
		ref := make([]*Batcher, len(shards))
		for i, d := range shards {
			ref[i] = NewBatcher(d, rng.Derive(9, uint64(i), 0xba7c4))
			ref[i].Reserve(size)
		}
		slab := bs.Of
		xs, ys := make([][]tensor.Vector, len(slab)), make([][]int, len(slab))
		for call := range 3*39/size + 1 { // three epochs of the longest shard
			for i := range slab { // every batcher draws before any batch is checked
				xs[i], ys[i] = slab[i].Next(size)
			}
			for i := range slab {
				wx, wy := ref[i].Next(size)
				if len(xs[i]) != len(wx) || len(ys[i]) != len(wy) {
					t.Fatalf("pass %d shard %d call %d: batch of %d, want %d", pass, i, call, len(xs[i]), len(wx))
				}
				for k := range wx {
					if &xs[i][k][0] != &wx[k][0] || ys[i][k] != wy[k] {
						t.Fatalf("pass %d shard %d (len %d) call %d: sample %d differs", pass, i, shards[i].Len(), call, k)
					}
				}
			}
		}
		for i := range rs {
			rng.DeriveTo(&rs[i], 9, uint64(i), 0xba7c4)
		}
		bs = NewBatchers(bs, shards, rs, size)
	}
	if n := testing.AllocsPerRun(4, func() { NewBatchers(Batchers{}, shards, rs, size) }); n != 4 {
		t.Fatalf("NewBatchers over %d shards made %v allocations, want 4", len(shards), n)
	}
	if n := testing.AllocsPerRun(4, func() { bs = NewBatchers(bs, shards, rs, size) }); n != 0 {
		t.Fatalf("NewBatchers into storage of the same shape made %v allocations", n)
	}
	if n := testing.AllocsPerRun(8, func() { bs.Of[3].Next(size) }); n != 0 {
		t.Fatalf("Next on a slab batcher made %v allocations", n)
	}
}

func TestClassHistogramAndSubset(t *testing.T) {
	d := &Dataset{NumClasses: 3, Dim: 1, Samples: []Sample{
		{X: []float64{0}, Y: 0}, {X: []float64{1}, Y: 1},
		{X: []float64{2}, Y: 1}, {X: []float64{3}, Y: 2},
	}}
	h := d.ClassHistogram()
	if h[0] != 1 || h[1] != 2 || h[2] != 1 {
		t.Fatalf("histogram %v", h)
	}
	sub := d.Subset([]int{1, 2})
	if sub.Len() != 2 || sub.Samples[0].Y != 1 {
		t.Fatal("subset wrong")
	}
}

func TestGenerateWritersTopSorted(t *testing.T) {
	cfg := FEMNISTWriters(8)
	cfg.Writers = 20
	cfg.Test = 124
	writers, test, err := GenerateWriters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(writers) != 20 {
		t.Fatalf("writer count %d", len(writers))
	}
	for i := 1; i < len(writers); i++ {
		if writers[i].Samples.Len() > writers[i-1].Samples.Len() {
			t.Fatal("writers not sorted by descending sample count")
		}
	}
	if test.Len() != 124 {
		t.Fatalf("test size %d", test.Len())
	}
	for _, w := range writers {
		if w.Samples.Len() < cfg.MinPerWriter || w.Samples.Len() > cfg.MaxPerWriter {
			t.Fatalf("writer size %d outside [%d,%d]", w.Samples.Len(), cfg.MinPerWriter, cfg.MaxPerWriter)
		}
	}
}

func TestGenerateWritersSkew(t *testing.T) {
	cfg := FEMNISTWriters(9)
	cfg.Writers = 10
	writers, _, err := GenerateWriters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Writer distributions should be skewed: a writer's most common class
	// should hold well above the uniform share of samples.
	skewed := 0
	for _, w := range writers {
		h := w.Samples.ClassHistogram()
		max := 0
		for _, c := range h {
			if c > max {
				max = c
			}
		}
		uniform := float64(w.Samples.Len()) / float64(cfg.Classes)
		if float64(max) > 3*uniform {
			skewed++
		}
	}
	if skewed < len(writers)/2 {
		t.Fatalf("only %d/%d writers skewed; writer model too uniform", skewed, len(writers))
	}
}

func TestGenerateWritersValidation(t *testing.T) {
	cfg := FEMNISTWriters(1)
	cfg.Writers = 0
	if _, _, err := GenerateWriters(cfg); err == nil {
		t.Fatal("want error for zero writers")
	}
	cfg = FEMNISTWriters(1)
	cfg.MinPerWriter, cfg.MaxPerWriter = 10, 5
	if _, _, err := GenerateWriters(cfg); err == nil {
		t.Fatal("want error for inverted per-writer range")
	}
}

// Subset returns a dataset sharing sample storage with d, restricted to
// the given indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{NumClasses: d.NumClasses, Dim: d.Dim, Samples: make([]Sample, len(idx))}
	for i, j := range idx {
		out.Samples[i] = d.Samples[j]
	}
	return out
}
