// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used by every stochastic component of the simulator.
//
// Determinism across goroutine interleavings is a hard requirement for the
// reproduction: every node derives an independent stream from the experiment
// seed and its node ID, so results are bit-identical no matter how the
// scheduler interleaves node goroutines. The generator is xoshiro256**
// seeded through splitmix64, following the reference constructions of
// Blackman and Vigna.
package rng

import "math"

// RNG is a xoshiro256** generator. The zero value is not usable; construct
// with New or Derive.
type RNG struct {
	s0, s1, s2, s3 uint64
	// cached second normal variate from the Box-Muller transform; gauss is
	// 0 whenever haveGauss is false, so equal states compare equal.
	haveGauss bool
	gauss     float64
}

// splitmix64 advances a splitmix64 state and returns the next output.
// It is used for seeding so that closely related seeds (0, 1, 2, ...)
// yield uncorrelated xoshiro states.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed.
func New(seed uint64) *RNG { return new(RNG).seed(seed) }

// seed restarts r on the fresh stream of seed, with no cached variate.
func (r *RNG) seed(seed uint64) *RNG {
	sm := seed
	*r = RNG{s0: splitmix64(&sm), s1: splitmix64(&sm), s2: splitmix64(&sm), s3: splitmix64(&sm)}
	return r
}

// Derive returns a new independent generator whose stream is a pure function
// of the given seed and the parts. It is the mechanism behind per-node,
// per-purpose streams: Derive(seed, nodeID, streamTag).
func Derive(seed uint64, parts ...uint64) *RNG { return New(derive(seed, parts)) }

// DeriveTo restarts r on the stream Derive(seed, parts...) returns, so a
// run can derive every node's streams into one slice.
func DeriveTo(r *RNG, seed uint64, parts ...uint64) { r.seed(derive(seed, parts)) }

// derive folds the parts into the seed Derive's generator starts from.
func derive(seed uint64, parts []uint64) uint64 {
	sm := seed
	acc := splitmix64(&sm)
	for _, p := range parts {
		sm ^= p * 0x9e3779b97f4a7c15
		acc ^= splitmix64(&sm)
	}
	return acc
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation with rejection to
	// remove modulo bias.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	tLo, tHi := t&mask, t>>32
	t = aLo*bHi + tLo
	lo |= t << 32
	hi = aHi*bHi + tHi + t>>32
	return hi, lo
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform. Variates are produced in pairs; the second is cached.
func (r *RNG) NormFloat64() float64 {
	if r.haveGauss {
		v := r.gauss
		r.haveGauss, r.gauss = false, 0
		return v
	}
	sin, cos := r.pair()
	r.gauss, r.haveGauss = sin, true
	return cos
}

// Normals fills dst with the next len(dst) normal variates: exactly what
// len(dst) calls of NormFloat64 would return, leaving r where they would
// leave it. A variate cached before the call comes first; an odd remainder
// leaves the pair's second variate cached. Whole pairs go straight into dst.
func (r *RNG) Normals(dst []float64) {
	i := 0
	if len(dst) > 0 && r.haveGauss {
		dst[0], r.haveGauss, r.gauss = r.gauss, false, 0
		i = 1
	}
	for ; i+1 < len(dst); i += 2 {
		dst[i+1], dst[i] = r.pair()
	}
	if i < len(dst) {
		r.gauss, dst[i] = r.pair()
		r.haveGauss = true
	}
}

// pair draws one Box-Muller pair, (mag*sin, mag*cos) of the same angle.
func (r *RNG) pair() (sin, cos float64) {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	v := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	// v is in [0, 1), so the angle is in [0, 2π): sincos's whole domain.
	// There it is bit for bit math.Sincos (TestSincosMatchesMath).
	sin, cos = sincos(2 * math.Pi * v)
	return mag * sin, mag * cos
}

// SkipNormals advances r exactly as k calls of NormFloat64 would, but
// computes only the variate an odd k leaves cached.
func (r *RNG) SkipNormals(k int) {
	if k > 0 && r.haveGauss {
		r.haveGauss, r.gauss, k = false, 0, k-1
	}
	for ; k > 1; k -= 2 {
		for r.Uint64()>>11 == 0 { // NormFloat64's rejection of u == 0
		}
		r.Uint64()
	}
	if k == 1 {
		r.NormFloat64()
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermTo(p)
	return p
}

// PermTo fills p with a random permutation of [0, len(p)): Perm into the
// caller's buffer, draw for draw.
func (r *RNG) PermTo(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}
