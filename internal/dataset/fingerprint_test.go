package dataset

import (
	"reflect"
	"testing"
)

// fieldVariants is v (first) and one copy per leaf field of v's type, a
// struct of ints, floats and uint64s (embedded structs walked), each
// differing from v in that field alone. A field added to a config is
// varied here without editing the test.
func fieldVariants[C any](v C) (names []string, variants []C) {
	names, variants = []string{"base"}, []C{v}
	var walk func(path string, f reflect.Value)
	walk = func(path string, f reflect.Value) {
		switch f.Kind() {
		case reflect.Struct:
			for i := range f.NumField() {
				walk(path+"."+f.Type().Field(i).Name, f.Field(i))
			}
			return
		case reflect.Int:
			f.SetInt(f.Int() + 1)
			defer f.SetInt(f.Int() - 1)
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
			defer f.SetUint(f.Uint() - 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.5)
			defer f.SetFloat(f.Float() - 0.5)
		default:
			panic("fieldVariants: field " + path + " of kind " + f.Kind().String())
		}
		names, variants = append(names, path), append(variants, reflect.ValueOf(&v).Elem().Interface().(C))
	}
	walk("", reflect.ValueOf(&v).Elem())
	return names, variants
}

// distinct fails t when two of the named fingerprints are equal.
func distinct(t *testing.T, fps map[string]uint64) {
	t.Helper()
	seen := map[uint64]string{}
	for name, fp := range fps {
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s and %s share fingerprint %016x", name, prev, fp)
		}
		seen[fp] = name
	}
}

// Every field of a generator config moves the fingerprints of what it
// generates, the train and test sets differ, and Generate stamps what
// SyntheticConfig.Fingerprints computes with no sample drawn.
func TestSyntheticFingerprintsCoverEveryField(t *testing.T) {
	fps := map[string]uint64{}
	names, variants := fieldVariants(SyntheticConfig{Classes: 3, Dim: 4, Train: 30, Test: 12, Noise: 1, Seed: 5})
	for i, cfg := range variants {
		train, test, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ft, fs := cfg.Fingerprints(); train.Fingerprint() != ft || test.Fingerprint() != fs {
			t.Fatalf("%s: Generate stamps %x %x, Fingerprints gives %x %x", names[i], train.Fingerprint(), test.Fingerprint(), ft, fs)
		}
		fps[names[i]+" train"], fps[names[i]+" test"] = train.Fingerprint(), test.Fingerprint()
	}
	distinct(t, fps)
}

// The same for the writer model: every field of WritersConfig and its
// embedded SyntheticConfig moves the fingerprints, every writer has its
// own, and WriterPartition's is WriterPartitionFingerprint's.
func TestWritersFingerprintsCoverEveryField(t *testing.T) {
	base := FEMNISTWriters(3)
	base.Writers, base.MinPerWriter, base.MaxPerWriter, base.Test = 12, 5, 20, 62
	fps := map[string]uint64{}
	names, variants := fieldVariants(base)
	for i, cfg := range variants {
		writers, test, err := GenerateWriters(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fw, fs := cfg.Fingerprints()
		if test.Fingerprint() != fs {
			t.Fatalf("%s: GenerateWriters stamps test %x, Fingerprints gives %x", names[i], test.Fingerprint(), fs)
		}
		p, err := WriterPartition(writers, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.Fingerprint(), WriterPartitionFingerprint(fw, 10); got != want {
			t.Fatalf("%s: WriterPartition's fingerprint %x, WriterPartitionFingerprint %x", names[i], got, want)
		}
		fps[names[i]+" partition"], fps[names[i]+" test"] = p.Fingerprint(), test.Fingerprint()
		if i == 0 {
			for r, w := range writers {
				fps["writer "+string(rune('a'+r))] = w.Samples.Fingerprint()
			}
		}
	}
	distinct(t, fps)
}

// Splits and shards carry which part of their source they are: the two
// halves, every split point and every node's shard differ, a partition's
// fingerprint moves with its node count, shards and seed, and both are
// computed from their source's fingerprint alone.
func TestSplitAndShardFingerprints(t *testing.T) {
	d := genFor(t, 4, 64, 1)
	fps := map[string]uint64{}
	for _, n := range []int{16, 32} {
		a, b := d.Split(n)
		if fa, fb := SplitFingerprints(d.Fingerprint(), n); a.Fingerprint() != fa || b.Fingerprint() != fb {
			t.Fatalf("Split(%d) stamps %x %x, SplitFingerprints gives %x %x", n, a.Fingerprint(), b.Fingerprint(), fa, fb)
		}
		fps["head "+string(rune('0'+n/16))], fps["tail "+string(rune('0'+n/16))] = a.Fingerprint(), b.Fingerprint()
	}
	for _, c := range []struct {
		name                string
		nodes, shards, seed int
	}{{"base", 4, 2, 9}, {"nodes", 8, 2, 9}, {"shards", 4, 4, 9}, {"seed", 4, 2, 10}} {
		p, err := ShardPartition(d, c.nodes, c.shards, uint64(c.seed))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.Fingerprint(), ShardPartitionFingerprint(d.Fingerprint(), c.nodes, c.shards, uint64(c.seed)); got != want {
			t.Fatalf("%s: ShardPartition's fingerprint %x, ShardPartitionFingerprint %x", c.name, got, want)
		}
		fps["partition "+c.name] = p.Fingerprint()
		if c.name == "base" {
			for i, node := range p {
				fps["node "+string(rune('0'+i))] = node.Fingerprint()
			}
		}
	}
	distinct(t, fps)
}
