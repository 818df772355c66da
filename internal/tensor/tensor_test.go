package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

const eps = 1e-12

func almost(a, b float64) bool { return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b)) }

func dot(a, b Vector) float64 {
	s := 0.0
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// fillNaN overwrites every element of v with NaN.
func (v Vector) fillNaN() {
	for i := range v {
		v[i] = math.NaN()
	}
}

func TestAddSubScale(t *testing.T) {
	a := Vector{1, 2, 3}
	dst := NewVector(3)
	ScaleTo(dst, 2, a)
	for i, want := range []float64{2, 4, 6} {
		if dst[i] != want {
			t.Fatalf("ScaleTo[%d] = %v", i, dst[i])
		}
	}
}

func TestAXPY(t *testing.T) {
	dst := Vector{1, 1, 1}
	AXPY(dst, 3, Vector{1, 2, 3})
	for i, want := range []float64{4, 7, 10} {
		if dst[i] != want {
			t.Fatalf("AXPY[%d] = %v", i, dst[i])
		}
	}
}

func TestDotNormDist(t *testing.T) {
	if got := Dist2(Vector{1, 1}, Vector{4, 5}); got != 5 {
		t.Fatalf("Dist2 = %v", got)
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax(Vector{1, 5, 3}) != 1 {
		t.Fatal("ArgMax basic")
	}
	if ArgMax(Vector{5, 5, 3}) != 0 {
		t.Fatal("ArgMax tie should pick lowest index")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ArgMax(empty) should panic")
		}
	}()
	ArgMax(nil)
}

func TestWeightedSum(t *testing.T) {
	dst := NewVector(2)
	WeightedSumTo(dst, []float64{0.5, 0.5}, []Vector{{2, 4}, {6, 8}})
	if dst[0] != 4 || dst[1] != 6 {
		t.Fatalf("WeightedSumTo = %v", dst)
	}
}

func TestWeightedSumDoublyStochasticFixedPoint(t *testing.T) {
	// Property: if all inputs equal x, any weights summing to 1 return x.
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		k := 2 + r.Intn(5)
		w := make([]float64, k)
		sum := 0.0
		for i := range w {
			w[i] = r.Float64()
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
		x := Vector{1.5, -2.5, 3.25}
		vecs := make([]Vector, k)
		for i := range vecs {
			vecs[i] = x.Clone()
		}
		dst := NewVector(3)
		WeightedSumTo(dst, w, vecs)
		for i := range dst {
			if !almost(dst[i], x[i]) {
				t.Fatalf("consensus fixed point violated: %v vs %v", dst, x)
			}
		}
	}
}

// TestMeanVector: uniform weights make WeightedSumTo the mean. A node's own
// model may not be both dst and an operand: that panics before dst is
// written.
func TestMeanVector(t *testing.T) {
	third := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	own, mean := Vector{1.5, 3}, NewVector(2)
	WeightedSumTo(mean, third, []Vector{own, {3, 4.5}, {4.5, 7.5}})
	if mean[0] != 3 || mean[1] != 5 {
		t.Fatalf("mean = %v, want [3 5]", mean)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dst as the first operand: want panic")
		}
		if own[0] != 1.5 || own[1] != 3 {
			t.Fatalf("dst half-written before the panic: %v", own)
		}
	}()
	WeightedSumTo(own, third, []Vector{own, {3, 4.5}, {4.5, 7.5}})
}

// awkward fills v with values that exercise every branch a kernel could
// take a short cut on: normals, exact zeros of both signs (the == 0 skip
// paths, and -0 + 0 = +0), subnormals and values whose products underflow.
func awkward(r *rng.RNG, v Vector) {
	for i := range v {
		switch r.Intn(8) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		case 2:
			v[i] = math.Float64frombits(uint64(1 + r.Intn(1<<20))) // subnormal
		case 3:
			v[i] = r.NormFloat64() * 1e-160
		default:
			v[i] = r.NormFloat64()
		}
	}
}

func sameBits(t *testing.T, what string, got, want Vector) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// The fused kernel must not move one bit against the loop it replaced in
// the simulator: ScaleTo for the first operand, then one AXPY per further
// operand, in operand order. One to nine operands take every path through
// it (zero to two passes of three operands, then a tail of zero to two
// AXPYs), on lengths below, at and across the 1 024-element block.
func TestWeightedSumMatchesScaleThenAXPYBitForBit(t *testing.T) {
	r := rng.New(2)
	for _, n := range []int{0, 1, 7, 1023, 1024, 1025, 2500, 44042} {
		for k := 1; k <= 9; k++ {
			weights := make(Vector, k)
			awkward(r, weights)
			vecs := make([]Vector, k)
			for i := range vecs {
				vecs[i] = NewVector(n)
				awkward(r, vecs[i])
			}
			want, got := NewVector(n), NewVector(n)
			ScaleTo(want, weights[0], vecs[0])
			for i := 1; i < k; i++ {
				AXPY(want, weights[i], vecs[i])
			}
			got.fillNaN() // whatever dst held must not leak into the sum
			WeightedSumTo(got, weights, vecs)
			sameBits(t, fmt.Sprintf("n=%d k=%d", n, k), got, want)
		}
	}
}

func TestWeightedSumChecksOperandsBeforeWriting(t *testing.T) {
	for name, tc := range map[string]struct {
		weights []float64
		vecs    []Vector
	}{
		"short last operand": {[]float64{0.5, 0.25, 0.25}, []Vector{{1, 2, 3}, {4, 5, 6}, {7, 8}}},
		"missing operand":    {[]float64{0.5, 0.25, 0.25}, []Vector{{1, 2, 3}, {4, 5, 6}}},
		"no operands":        {nil, nil},
	} {
		dst := Vector{-1, -2, -3}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: want panic", name)
				}
			}()
			WeightedSumTo(dst, tc.weights, tc.vecs)
		}()
		if dst[0] != -1 || dst[1] != -2 || dst[2] != -3 {
			t.Fatalf("%s: dst half-written before the panic: %v", name, dst)
		}
	}
}

// Four rows per pass must give every row the sum the one-row loop gives it.
func TestMatVecMatchesPerRowLoopBitForBit(t *testing.T) {
	r := rng.New(4)
	for _, rows := range []int{1, 3, 4, 5, 10, 1024} {
		for _, cols := range []int{0, 1, 7, 32, 43} {
			m := NewMatrix(rows, cols)
			awkward(r, m.Data)
			x := NewVector(cols)
			awkward(r, x)
			want, got := NewVector(rows), NewVector(rows)
			for i := 0; i < rows; i++ {
				s := 0.0
				for j, w := range m.Data[i*m.Cols : (i+1)*m.Cols] {
					s += w * x[j]
				}
				want[i] = s
			}
			got.fillNaN()
			MatVecTo(got, m, x)
			sameBits(t, fmt.Sprintf("%dx%d", rows, cols), got, want)
		}
	}
}

// The unrolled OuterAcc and the re-sliced MatTVecTo against the loops as
// first written, zero-skips included.
func TestOuterAccAndMatTVecMatchNaiveLoopsBitForBit(t *testing.T) {
	r := rng.New(5)
	for _, rows := range []int{1, 3, 10} {
		for _, cols := range []int{0, 1, 3, 4, 5, 32, 43} {
			m := NewMatrix(rows, cols)
			awkward(r, m.Data)
			a, b := NewVector(rows), NewVector(cols)
			awkward(r, a)
			awkward(r, b)
			wantT := NewVector(cols)
			for i, av := range a {
				if av == 0 {
					continue
				}
				for j, w := range m.Data[i*m.Cols : (i+1)*m.Cols] {
					wantT[j] += w * av
				}
			}
			gotT := NewVector(cols)
			gotT.fillNaN()
			MatTVecTo(gotT, m, a)
			sameBits(t, fmt.Sprintf("MatTVecTo %dx%d", rows, cols), gotT, wantT)

			want := m.Clone()
			for i, av := range a {
				if av == 0 {
					continue
				}
				for j, bv := range b {
					want.Data[i*cols+j] += av * bv
				}
			}
			OuterAcc(m, a, b)
			sameBits(t, fmt.Sprintf("OuterAcc %dx%d", rows, cols), m.Data, want.Data)
		}
	}
}

func TestMatVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	dst := NewVector(2)
	MatVecTo(dst, m, Vector{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("MatVecTo = %v", dst)
	}
}

func TestMatTVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	dst := NewVector(3)
	MatTVecTo(dst, m, Vector{1, 2})
	want := []float64{9, 12, 15}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MatTVecTo = %v", dst)
		}
	}
}

func TestOuterAcc(t *testing.T) {
	m := NewMatrix(2, 2)
	OuterAcc(m, Vector{1, 2}, Vector{3, 4})
	want := []float64{3, 4, 6, 8}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("OuterAcc = %v", m.Data)
		}
	}
	OuterAcc(m, Vector{1, 0}, Vector{1, 1}) // accumulation, zero-skip path
	if m.Data[0] != 4 || m.Data[1] != 5 || m.Data[2] != 6 {
		t.Fatalf("OuterAcc accumulate = %v", m.Data)
	}
}

func TestMatMul(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := NewMatrix(3, 2)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	dst := NewMatrix(2, 2)
	MatMulTo(dst, a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if dst.Data[i] != want[i] {
			t.Fatalf("MatMulTo = %v", dst.Data)
		}
	}
}

func TestMatVecTransposeConsistency(t *testing.T) {
	// Property: y^T (M x) == (M^T y)^T x for random shapes.
	r := rng.New(3)
	for trial := 0; trial < 30; trial++ {
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		x, y := NewVector(cols), NewVector(rows)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range y {
			y[i] = r.NormFloat64()
		}
		mx, mty := NewVector(rows), NewVector(cols)
		MatVecTo(mx, m, x)
		MatTVecTo(mty, m, y)
		if !almost(dot(y, mx), dot(mty, x)) {
			t.Fatalf("adjoint identity violated: %v vs %v", dot(y, mx), dot(mty, x))
		}
	}
}

func TestShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"AXPY":     func() { AXPY(NewVector(2), 1, NewVector(3)) },
		"MatVec":   func() { MatVecTo(NewVector(2), NewMatrix(2, 3), NewVector(2)) },
		"MatTVec":  func() { MatTVecTo(NewVector(2), NewMatrix(2, 3), NewVector(2)) },
		"Outer":    func() { OuterAcc(NewMatrix(2, 2), NewVector(3), NewVector(2)) },
		"MatMul":   func() { MatMulTo(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2)) },
		"Weighted": func() { WeightedSumTo(NewVector(1), []float64{1}, nil) },
		"Aliased":  func() { v := NewVector(2); WeightedSumTo(v, []float64{0.5, 0.5}, []Vector{NewVector(2), v}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: want panic on shape mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(3, 2)
	m.Set(1, 1, 42)
	if m.Data[1*m.Cols+1] != 42 {
		t.Fatal("Set writes the wrong element")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.Data[0] == 99 {
		t.Fatal("Clone should be deep")
	}
}

func TestVectorCloneZeroFill(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Fatal("Clone aliases source")
	}
	v.Zero()
	if v[0] != 0 || v[1] != 0 || v[2] != 0 {
		t.Fatal("Zero failed")
	}
}

func BenchmarkAXPY90K(b *testing.B) {
	// Model-size vector: the CIFAR-10 CNN of the paper has 89,834 params.
	x, d := NewVector(89834), NewVector(89834)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AXPY(d, 0.5, x)
	}
}
