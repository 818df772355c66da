package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical outputs", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(7, 0)
	b := Derive(7, 1)
	c := Derive(7, 0) // same parts -> same stream
	if a.Uint64() == b.Uint64() {
		t.Fatal("derived streams for different nodes collide on first draw")
	}
	a2 := Derive(7, 0)
	for i := 0; i < 100; i++ {
		if a2.Uint64() != c.Uint64() {
			t.Fatal("Derive is not a pure function of its arguments")
		}
	}
}

func TestDeriveMultipleParts(t *testing.T) {
	a := Derive(1, 2, 3)
	b := Derive(1, 3, 2)
	if a.Uint64() == b.Uint64() {
		t.Fatal("part order should matter")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

// PermTo is Perm into the caller's buffer: over a dirty buffer it gives the
// permutation Perm — and a Shuffle of the identity, the form Perm had —
// gives from the same state, draw for draw, and leaves the generator where
// they leave it.
func TestPermToMatchesPermDrawForDraw(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 257} {
		a, b, c := New(11), New(11), New(11)
		buf := make([]int, n)
		for i := range buf {
			buf[i] = -7
		}
		a.PermTo(buf)
		want := b.Perm(n)
		shuffled := make([]int, n)
		for i := range shuffled {
			shuffled[i] = i
		}
		c.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for i := range want {
			if buf[i] != want[i] || buf[i] != shuffled[i] {
				t.Fatalf("n=%d: PermTo %v, Perm %v, Shuffle %v", n, buf, want, shuffled)
			}
		}
		if x, y, z := a.Uint64(), b.Uint64(), c.Uint64(); x != y || x != z {
			t.Fatalf("n=%d: generators diverge after the permutation: %d %d %d", n, x, y, z)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(10)
	for i := 0; i < 1000; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestMul64Property(t *testing.T) {
	// Against big-integer-free reference: check (a*b) mod 2^64 == lo.
	f := func(a, b uint64) bool {
		_, lo := mul64(a, b)
		return lo == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleProperty(t *testing.T) {
	// Shuffling preserves the multiset of elements.
	f := func(seed uint64, raw []byte) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		vals := make([]int, len(raw))
		counts := map[int]int{}
		for i, b := range raw {
			vals[i] = int(b)
			counts[int(b)]++
		}
		New(seed).Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		for _, v := range vals {
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

// DeriveTo restarts a generator in place on Derive's stream: for a table
// of (seed, parts), into a slot of a shared slice whose neighbour is
// drawing too and which held another stream with a cached normal variate,
// 1 000 mixed draws equal Derive's — NormFloat64's cached second variate
// among them.
func TestDeriveToMatchesDerive(t *testing.T) {
	for _, tc := range []struct {
		seed  uint64
		parts []uint64
	}{
		{0, nil}, {1, []uint64{0}}, {7, []uint64{3, 0x1417}}, {7, []uint64{3, 0xba7c4}},
		{42, []uint64{0xe7a1, 1}}, {^uint64(0), []uint64{^uint64(0), 0, 1 << 63}},
	} {
		slab := make([]RNG, 2)
		DeriveTo(&slab[0], 99, 1)
		slab[1].seed(5)
		slab[1].NormFloat64() // leaves a cached variate DeriveTo must drop
		DeriveTo(&slab[1], tc.seed, tc.parts...)
		want := Derive(tc.seed, tc.parts...)
		for i := range 1000 {
			slab[0].Uint64()
			var got, exp uint64
			switch i % 4 {
			case 0:
				got, exp = slab[1].Uint64(), want.Uint64()
			case 1:
				got, exp = math.Float64bits(slab[1].Float64()), math.Float64bits(want.Float64())
			default: // two in a row: the pair's second variate comes from the cache
				got, exp = math.Float64bits(slab[1].NormFloat64()), math.Float64bits(want.NormFloat64())
			}
			if got != exp {
				t.Fatalf("seed %d parts %v: draw %d is %v in place, %v from Derive", tc.seed, tc.parts, i, got, exp)
			}
		}
	}
}

// TestNormFloat64Pinned: the first 100 000 normal variates of three seeds,
// to the bit (SHA-256 of their little-endian bits), as the Box-Muller
// transform with a separate math.Sin and math.Cos drew them. Every model's
// initial weights, and so every pinned table, stand on these draws.
func TestNormFloat64Pinned(t *testing.T) {
	for seed, want := range map[uint64]string{
		1:  "23147381f31d79a99bd0866928fdcf4a94354eb4be5d460809f5a296f81e3051",
		7:  "dd684dd7a22d473ddf0dad43bd244f17dde5198eb866e057c42376bd0eac07f1",
		42: "4d2a975a1fb33120f623e5a45e7c3181500da36c4674d1804b609fbcb3c77040",
	} {
		r, h := New(seed), sha256.New()
		for range 100000 {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(r.NormFloat64())))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("seed %d: normal variates hash to %s, want %s", seed, got, want)
		}
	}
}

// TestSkipNormalsMatchesDraws: after SkipNormals(k), from a fresh stream
// and from one holding a cached variate, a generator draws on exactly as
// one that made k NormFloat64 calls — checked by 1 000 mixed draws.
func TestSkipNormalsMatchesDraws(t *testing.T) {
	for _, cached := range []bool{false, true} {
		for k := range 10 {
			skipped, drawn := New(uint64(11+k)), New(uint64(11+k))
			if cached {
				skipped.NormFloat64()
				drawn.NormFloat64()
			}
			skipped.SkipNormals(k)
			for range k {
				drawn.NormFloat64()
			}
			for i := range 1000 {
				var got, want uint64
				if i%3 == 0 {
					got, want = skipped.Uint64(), drawn.Uint64()
				} else {
					got, want = math.Float64bits(skipped.NormFloat64()), math.Float64bits(drawn.NormFloat64())
				}
				if got != want {
					t.Fatalf("cached %v, k %d: draw %d is %#x after the skip, %#x after k draws", cached, k, i, got, want)
				}
			}
		}
	}
}

func BenchmarkNormals(b *testing.B) {
	r, dst := New(1), make([]float64, 32)
	for i := 0; i < b.N; i += len(dst) {
		r.Normals(dst)
	}
}

// FuzzNormals: a script of Normals fills (0 to 65 variates), NormFloat64
// calls and SkipNormals(k) equals its replay through NormFloat64 alone,
// value for value, and leaves the generator in the replay's state — the
// cached variate included — after every step. A fill writes nothing past
// its length.
func FuzzNormals(f *testing.F) {
	f.Add(uint64(1), []byte{0, 5, 1, 0, 0, 6, 2, 3, 0, 0, 0, 65})
	f.Add(uint64(7), []byte{1, 0, 0, 1, 2, 1, 0, 64, 1, 0, 0, 2})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		got, want := New(seed), New(seed)
		var buf [66 + 1]float64
		for i := 0; i+1 < len(script); i += 2 {
			op, n := script[i]%3, int(script[i+1]%66)
			switch op {
			case 0:
				buf[n] = math.Inf(-1)
				got.Normals(buf[:n])
				if !math.IsInf(buf[n], -1) {
					t.Fatalf("step %d: Normals of %d wrote past its end", i/2, n)
				}
				for k, v := range buf[:n] {
					if w := want.NormFloat64(); math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("step %d: Normals of %d gives %v at %d, NormFloat64 %v", i/2, n, v, k, w)
					}
				}
			case 1:
				if v, w := got.NormFloat64(), want.NormFloat64(); math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("step %d: NormFloat64 gives %v, its replay %v", i/2, v, w)
				}
			case 2:
				got.SkipNormals(n)
				for range n {
					want.NormFloat64()
				}
			}
			if *got != *want {
				t.Fatalf("step %d (op %d, n %d): state %+v, replay %+v", i/2, op, n, *got, *want)
			}
		}
	})
}
