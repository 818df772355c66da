package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// hashSamples writes d's samples into h in order: every input's bits, then
// its label. It fails t unless every input is capped at its own length, so
// no sample can append into its neighbor's slab window.
func hashSamples(t *testing.T, h hash.Hash, d *Dataset) {
	t.Helper()
	var b []byte
	for i, s := range d.Samples {
		if cap(s.X) != len(s.X) {
			t.Fatalf("sample %d: cap(X) = %d, len(X) = %d", i, cap(s.X), len(s.X))
		}
		for _, x := range s.X {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Y))
	}
	h.Write(b)
}

// TestGeneratePinned: Generate's two splits and GenerateWriters' writers
// and test split at one seed, to the bit (SHA-256 of every sample's input
// bits and label, in order). Every pinned table stands on these samples.
func TestGeneratePinned(t *testing.T) {
	train, test := mustGenerate(t, SyntheticConfig{Classes: 10, Dim: 32, Train: 640, Test: 256, Noise: 2.5, Seed: 7})
	h := sha256.New()
	hashSamples(t, h, train)
	hashSamples(t, h, test)
	if got, want := hex.EncodeToString(h.Sum(nil)), "2a268190ddb53d4a7f2ebe5e26e9793c4da937207faf804d2ea7d32c235d5a10"; got != want {
		t.Errorf("Generate hashes to %s, want %s", got, want)
	}

	cfg := FEMNISTWriters(7)
	cfg.Writers, cfg.Test = 40, 310
	writers, wtest, err := GenerateWriters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h = sha256.New()
	for _, w := range writers {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(w.Writer)))
		hashSamples(t, h, w.Samples)
	}
	hashSamples(t, h, wtest)
	if got, want := hex.EncodeToString(h.Sum(nil)), "1e42bbfd64eafed532f4c9ae9bcdd277b5c4b895bdfcb163ac00dd07fd5a296b"; got != want {
		t.Errorf("GenerateWriters hashes to %s, want %s", got, want)
	}
}

// TestShardPartitionPinned: every node's shard of a pinned training split,
// in order, to the bit.
func TestShardPartitionPinned(t *testing.T) {
	train, _ := mustGenerate(t, SyntheticConfig{Classes: 10, Dim: 8, Train: 997, Test: 10, Noise: 1, Seed: 3})
	p, err := ShardPartition(train, 13, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, d := range p {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(d.Len())))
		hashSamples(t, h, d)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "60cde4737b1c64e7a9ddf13277d18b7785e0176acd9424e2c28765d1ee792926"; got != want {
		t.Errorf("ShardPartition hashes to %s, want %s", got, want)
	}
}

// TestSetUpAllocsIndependentOfSize: a split is one slab whatever its
// length, and a partition one slab of samples and one of datasets whatever
// its node count, so Generate allocates as often for 100 training samples
// as for 10 000, and ShardPartition as often for 8 nodes as for 300. Each
// count is the least of a few measurements: a collection set off by the
// large slabs can add a stray allocation of the runtime's own.
func TestSetUpAllocsIndependentOfSize(t *testing.T) {
	least := func(f func()) float64 {
		n := math.Inf(1)
		for range 5 {
			n = min(n, testing.AllocsPerRun(3, f))
		}
		return n
	}
	generate := func(train int) float64 {
		cfg := SyntheticConfig{Classes: 10, Dim: 8, Train: train, Test: 50, Noise: 1, Seed: 4}
		return least(func() { mustGenerate(t, cfg) })
	}
	if small, large := generate(100), generate(10000); small != large {
		t.Errorf("Generate: %v allocations for 100 training samples, %v for 10 000", small, large)
	}
	train, _ := mustGenerate(t, SyntheticConfig{Classes: 10, Dim: 8, Train: 3000, Test: 10, Noise: 1, Seed: 5})
	partition := func(nodes int) float64 {
		return least(func() {
			if _, err := ShardPartition(train, nodes, 2, 5); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := partition(8), partition(300); small != large {
		t.Errorf("ShardPartition: %v allocations at 8 nodes, %v at 300", small, large)
	}
}
