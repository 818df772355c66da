// Package tensor implements the dense float64 vector and matrix kernels the
// learning stack is built on. It is deliberately small: decentralized
// learning needs vector arithmetic for model mixing (weighted averaging of
// flat parameter vectors) and matrix-vector products for dense layers.
//
// All kernels are allocation-free when given destination slices, so the hot
// training loop produces no garbage, and serial: the simulator fans nodes,
// not kernels, out over the cores. WeightedSumTo, MatVecTo and OuterAcc pass
// over memory fewer times than the naive loops but sum every output element
// in the same order, so they match them bit for bit (tensor_test.go).
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Zero sets every element of v to 0.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// ScaleTo computes dst = s * a.
func ScaleTo(dst Vector, s float64, a Vector) {
	checkLen2(len(dst), len(a))
	for i := range dst {
		dst[i] = s * a[i]
	}
}

// AXPY computes dst += alpha * x, the workhorse of both SGD updates and
// weighted model aggregation.
func AXPY(dst Vector, alpha float64, x Vector) {
	checkLen2(len(dst), len(x))
	for i, xv := range x {
		dst[i] += alpha * xv
	}
}

// Dist2 returns the Euclidean distance between a and b.
func Dist2(a, b Vector) float64 {
	checkLen2(len(a), len(b))
	s := 0.0
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// ArgMax returns the index of the largest element of v; ties resolve to the
// lowest index. It panics on an empty vector.
func ArgMax(v Vector) int {
	if len(v) == 0 {
		panic("tensor: ArgMax of empty vector")
	}
	best, bi := v[0], 0
	for i := 1; i < len(v); i++ {
		if v[i] > best {
			best, bi = v[i], i
		}
	}
	return bi
}

// WeightedSumTo computes dst = sum_k weights[k] * vecs[k], the aggregation
// step of D-PSGD (Algorithm 1, line 8): the new model is the W-weighted
// average of neighborhood models. Each element is summed in operand order,
// ((w0*v0 + w1*v1) + w2*v2) + ..., as ScaleTo then one AXPY per further
// operand would, in one pass over dst; with uniform weights 1/k it is the
// mean of the k operands. It needs at least one operand, all of dst's
// length, none of them dst itself, and checks that before it writes dst.
func WeightedSumTo(dst Vector, weights []float64, vecs []Vector) {
	if len(weights) != len(vecs) || len(vecs) == 0 {
		panic(fmt.Sprintf("tensor: %d weights for %d vectors, want equal and at least one", len(weights), len(vecs)))
	}
	for k, v := range vecs {
		switch {
		case len(v) != len(dst):
			panic(fmt.Sprintf("tensor: weighted-sum operand %d has length %d, dst %d", k, len(v), len(dst)))
		case len(v) > 0 && &v[0] == &dst[0]:
			panic(fmt.Sprintf("tensor: weighted-sum operand %d is dst", k))
		}
	}
	const block = 1024 // 8 KB of dst and of three operands: first-level cache
	for lo := 0; lo < len(dst); lo += block {
		hi := min(lo+block, len(dst))
		d := dst[lo:hi]
		ScaleTo(d, weights[0], vecs[0][lo:hi])
		k := 1
		for ; k+3 <= len(vecs); k += 3 {
			wa, wb, wc := weights[k], weights[k+1], weights[k+2]
			a, b, c := vecs[k][lo:][:len(d)], vecs[k+1][lo:][:len(d)], vecs[k+2][lo:][:len(d)]
			for i := range d {
				d[i] = d[i] + wa*a[i] + wb*b[i] + wc*c[i]
			}
		}
		for ; k < len(vecs); k++ {
			AXPY(d, weights[k], vecs[k][lo:hi])
		}
	}
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MatVecTo computes dst = m * x (dst length Rows, x length Cols), four rows
// a pass so their add chains overlap; each is still summed j = 0..Cols-1.
func MatVecTo(dst Vector, m *Matrix, x Vector) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch: (%dx%d) * %d -> %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	n, i := len(x), 0
	for ; i+4 <= len(dst); i += 4 {
		rows := m.Data[i*n : (i+4)*n]
		r0, r1, r2, r3 := rows[:n], rows[n:][:n], rows[2*n:][:n], rows[3*n:][:n]
		var s0, s1, s2, s3 float64
		for j, xv := range x {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < len(dst); i++ {
		row := m.Data[i*n:][:n]
		s := 0.0
		for j, xv := range x {
			s += row[j] * xv
		}
		dst[i] = s
	}
}

// MatTVecTo computes dst = m^T * x (dst length Cols, x length Rows).
func MatTVecTo(dst Vector, m *Matrix, x Vector) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: MatTVec shape mismatch: (%dx%d)^T * %d -> %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	dst.Zero()
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Data[i*len(dst):][:len(dst)]
		for j, w := range row {
			dst[j] += w * xi
		}
	}
}

// OuterAcc accumulates m += a * b^T (a length Rows, b length Cols), used for
// dense-layer weight gradients.
func OuterAcc(m *Matrix, a, b Vector) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic(fmt.Sprintf("tensor: Outer shape mismatch: %d x %d into (%dx%d)",
			len(a), len(b), m.Rows, m.Cols))
	}
	for i, av := range a {
		if av == 0 {
			continue
		}
		row := m.Data[i*len(b):][:len(b)]
		j := 0
		for ; j+4 <= len(b); j += 4 {
			r, c := row[j:j+4:j+4], b[j:j+4:j+4]
			r[0], r[1], r[2], r[3] = r[0]+av*c[0], r[1]+av*c[1], r[2]+av*c[2], r[3]+av*c[3]
		}
		for ; j < len(b); j++ {
			row[j] += av * b[j]
		}
	}
}

// MatMulTo computes dst = a * b. Shapes must satisfy a.Cols == b.Rows,
// dst.Rows == a.Rows, dst.Cols == b.Cols. dst must not alias a or b.
func MatMulTo(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch: (%dx%d)*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func checkLen2(a, b int) {
	if a != b {
		panic(fmt.Sprintf("tensor: length mismatch %d vs %d", a, b))
	}
}
