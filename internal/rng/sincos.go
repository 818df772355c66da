package rng

import "math"

// sincos returns math.Sincos(x), bit for bit, for x in [0, 2π): the
// Box-Muller angle 2π·v of a v in [0, 1). It is math.Sincos's Cody-Waite
// reduction by π/4 and its polynomials, without the branches that domain
// never takes (zero, NaN, ±Inf, a negative x, Payne-Hanek reduction past
// 2²⁹), and with the octant fix-ups done on bits: the swap of the two
// polynomials is a masked exchange and each sign flip an XOR of the sign
// bit, so the kernel has no data-dependent branch. TestSincosMatchesMath
// pins it against math.Sincos over 2²⁴ angles and every octant boundary.
func sincos(x float64) (sin, cos float64) {
	const (
		PI4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		PI4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		PI4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,

		sin0, sin1, sin2 = 1.58962301576546568060e-10, -2.50507477628578072866e-8, 2.75573136213857245213e-6
		sin3, sin4, sin5 = -1.98412698295895385996e-4, 8.33333333332211858878e-3, -1.66666666666666307295e-1
		cos0, cos1, cos2 = -1.13585365213876817300e-11, 2.08757008419747316778e-9, -2.75573141792967388112e-7
		cos3, cos4, cos5 = 2.48015872888517045348e-5, -1.38888888888730564116e-3, 4.16666666666665929218e-2
	)
	j := uint64(x * (4 / math.Pi)) // integer part of x/(Pi/4): 0 to 8
	j += j & 1                     // map zeros to origin
	y := float64(j)
	z := ((x - y*PI4A) - y*PI4B) - y*PI4C // Extended precision modular arithmetic

	zz := z * z
	cos = 1.0 - 0.5*zz + zz*zz*((((((cos0*zz)+cos1)*zz+cos2)*zz+cos3)*zz+cos4)*zz+cos5)
	sin = z + z*zz*((((((sin0*zz)+sin1)*zz+sin2)*zz+sin3)*zz+sin4)*zz+sin5)

	// j is even, so its octant mod 8 is 0, 2, 4 or 6: octants 2 and 6 swap
	// the polynomials, 4 and 6 negate the sine, 2 and 4 the cosine.
	sb, cb := math.Float64bits(sin), math.Float64bits(cos)
	swap := (sb ^ cb) & -(j >> 1 & 1)
	sb, cb = sb^swap, cb^swap
	sb ^= j >> 2 & 1 << 63
	cb ^= (j>>2 ^ j>>1) & 1 << 63
	return math.Float64frombits(sb), math.Float64frombits(cb)
}
