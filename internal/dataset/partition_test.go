package dataset

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func genFor(t *testing.T, classes, train int, seed uint64) *Dataset {
	t.Helper()
	cfg := SyntheticConfig{Classes: classes, Dim: 4, Train: train, Test: 10, Noise: 1, Seed: seed}
	d, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// totalLen is the sum of p's local dataset sizes.
func totalLen(p Partition) int {
	t := 0
	for _, d := range p {
		t += d.Len()
	}
	return t
}

// distinctLabels counts, per node, the distinct labels in its local data.
func distinctLabels(p Partition) []int {
	out := make([]int, len(p))
	for i, d := range p {
		seen := map[int]bool{}
		for _, s := range d.Samples {
			seen[s.Y] = true
		}
		out[i] = len(seen)
	}
	return out
}

func TestShardPartitionCoversAllSamples(t *testing.T) {
	d := genFor(t, 10, 1000, 1)
	p, err := ShardPartition(d, 16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 16 {
		t.Fatalf("partition size %d", len(p))
	}
	if totalLen(p) != d.Len() {
		t.Fatalf("partition covers %d of %d samples", totalLen(p), d.Len())
	}
	// No sample assigned twice.
	seen := map[*float64]bool{}
	for _, local := range p {
		for _, s := range local.Samples {
			if seen[&s.X[0]] {
				t.Fatal("sample assigned to two nodes")
			}
			seen[&s.X[0]] = true
		}
	}
}

func TestShardPartitionLimitsLabels(t *testing.T) {
	// The defining property of the paper's 2-shard split: each node sees at
	// most 2 (occasionally 3, when a shard straddles a label boundary)
	// distinct labels out of 10.
	d := genFor(t, 10, 2000, 2)
	p, err := ShardPartition(d, 20, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	atMost2 := 0
	for _, n := range distinctLabels(p) {
		if n > 4 {
			t.Fatalf("node with %d distinct labels; shard partition broken", n)
		}
		if n <= 2 {
			atMost2++
		}
	}
	if atMost2 < len(p)/2 {
		t.Fatalf("only %d/%d nodes have <=2 labels", atMost2, len(p))
	}
}

func TestShardPartitionDeterministic(t *testing.T) {
	d := genFor(t, 10, 500, 4)
	p1, _ := ShardPartition(d, 10, 2, 9)
	p2, _ := ShardPartition(d, 10, 2, 9)
	for i := range p1 {
		if p1[i].Len() != p2[i].Len() {
			t.Fatal("shard partition not deterministic")
		}
		for j := range p1[i].Samples {
			if p1[i].Samples[j].Y != p2[i].Samples[j].Y {
				t.Fatal("shard partition not deterministic")
			}
		}
	}
}

func TestShardPartitionErrors(t *testing.T) {
	d := genFor(t, 4, 40, 5)
	if _, err := ShardPartition(d, 0, 2, 1); err == nil {
		t.Fatal("want error for n=0")
	}
	if _, err := ShardPartition(d, 100, 2, 1); err == nil {
		t.Fatal("want error for too many shards")
	}
}

func TestWriterPartition(t *testing.T) {
	cfg := FEMNISTWriters(11)
	cfg.Writers = 12
	writers, _, err := GenerateWriters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := WriterPartition(writers, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 8 {
		t.Fatalf("writer partition size %d", len(p))
	}
	// Top-8: node i's dataset must be at least as large as node i+1's.
	for i := 1; i < len(p); i++ {
		if p[i].Len() > p[i-1].Len() {
			t.Fatal("writer partition not using top writers")
		}
	}
	if _, err := WriterPartition(writers, 20); err == nil {
		t.Fatal("want error when writers < nodes")
	}
}

func TestShardPartitionProperty(t *testing.T) {
	// Property: for any valid (n, shards) the partition is a true partition
	// (disjoint cover) of the dataset.
	d := genFor(t, 6, 600, 12)
	f := func(seed uint64, nRaw, sRaw uint8) bool {
		n := 1 + int(nRaw)%20
		s := 1 + int(sRaw)%3
		if d.Len() < n*s {
			return true
		}
		p, err := ShardPartition(d, n, s, seed)
		if err != nil {
			return false
		}
		return totalLen(p) == d.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestShardPartitionRejectsOutOfRangeLabels: a hand-built dataset with a
// label below 0 or at NumClasses or past it is an error, not an index
// panic and not a silent partition.
func TestShardPartitionRejectsOutOfRangeLabels(t *testing.T) {
	for _, bad := range []int{-1, 3, 1 << 40} {
		d := &Dataset{NumClasses: 3, Dim: 1}
		for i := range 8 {
			d.Samples = append(d.Samples, Sample{X: []float64{float64(i)}, Y: i % 3})
		}
		d.Samples[5].Y = bad
		p, err := ShardPartition(d, 2, 2, 1)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("sample 5 has label %d", bad)) {
			t.Errorf("label %d: ShardPartition = %v, %v; want an error naming sample 5", bad, p, err)
		}
	}
}

// TestSortByLabelMatchesStableSort: the counting sort returns the order
// the stable comparison sort it replaced returned, on random label vectors
// with empty classes, a single class, a single sample and no samples among
// them.
func TestSortByLabelMatchesStableSort(t *testing.T) {
	reference := func(d *Dataset) []int {
		idx := make([]int, d.Len())
		for i := range idx {
			idx[i] = i
		}
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(d.Samples[a].Y, d.Samples[b].Y) })
		return idx
	}
	r := rng.New(17)
	for trial := range 300 {
		classes, n := 1+r.Intn(12), r.Intn(400)
		switch trial % 5 {
		case 0:
			n = 1
		case 1:
			classes = 1
		case 2:
			n = 0
		}
		// Labels come from a random subset of the classes, so some are empty.
		labels := r.Perm(classes)[:1+r.Intn(classes)]
		d := &Dataset{NumClasses: classes, Dim: 1, Samples: make([]Sample, n)}
		for i := range d.Samples {
			d.Samples[i].Y = labels[r.Intn(len(labels))]
		}
		got, err := sortByLabel(d)
		if err != nil {
			t.Fatal(err)
		}
		if want := reference(d); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d classes, %d samples): counting sort %v, stable sort %v", trial, classes, n, got, want)
		}
	}
}
