package nn

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// dense is one layer of a network: out = W*in + b, rectified to max(0, ·)
// when relu is set. The bias is optional so that parameter counts can be
// matched exactly against reference architectures that omit it. W and B
// are windows of the model in use, gW and gB of the gradient vector, y and
// dx of the network's own vector (newNetwork).
type dense struct {
	in, out    int
	bias, relu bool
	glorot     bool          // Glorot-normal weights: the classifier of LogisticRegression and MLP
	W, gW      tensor.Matrix // out x in; headers over the vectors, held by value
	B, gB      tensor.Vector // empty when bias is disabled
	x          tensor.Vector // the caller's slice, held from forward to backward
	y          tensor.Vector // the output, rectified in place when relu is set
	dx         tensor.Vector // nil in a network's first layer: nothing reads it
}

func (l *dense) paramSize() int {
	if l.bias {
		return l.out*l.in + l.out
	}
	return l.out * l.in
}

// forward writes the layer's output into y and returns it.
func (l *dense) forward(in tensor.Vector) tensor.Vector {
	checkSize("dense", len(in), l.in)
	l.x = in
	tensor.MatVecTo(l.y, &l.W, in)
	if l.bias {
		for i := range l.y {
			l.y[i] += l.B[i]
		}
	}
	if l.relu {
		for i, v := range l.y {
			if !(v > 0) { // NaN and -0 rectify to +0
				l.y[i] = 0
			}
		}
	}
	return l.y
}

// backward takes dLoss/dOut, which it masks in place where the ReLU cut the
// output, accumulates the parameter gradients and returns dLoss/dIn, or nil
// from a network's first layer.
func (l *dense) backward(dOut tensor.Vector) tensor.Vector {
	checkSize("dense", len(dOut), l.out)
	if l.relu {
		for i, v := range l.y {
			if !(v > 0) {
				dOut[i] = 0
			}
		}
	}
	tensor.OuterAcc(&l.gW, dOut, l.x)
	if l.bias {
		tensor.AXPY(l.gB, 1, dOut)
	}
	if l.dx == nil {
		return nil
	}
	tensor.MatTVecTo(l.dx, &l.W, dOut)
	return l.dx
}

// use and bindGrads split at out*in: weights, then the bias (empty without).
func (l *dense) use(params tensor.Vector) {
	n := l.out * l.in
	l.W, l.B = tensor.Matrix{Rows: l.out, Cols: l.in, Data: params[:n:n]}, params[n:]
}

func (l *dense) bindGrads(grads tensor.Vector) {
	n := l.out * l.in
	l.gW, l.gB = tensor.Matrix{Rows: l.out, Cols: l.in, Data: grads[:n]}, grads[n:]
}

// init writes initial parameters into the window in use, drawing from r:
// N(0, 2/fanIn) weights (He-normal, the right default for ReLU networks) or
// N(0, 2/(fanIn+fanOut)) (Glorot-normal), and a zero bias.
func (l *dense) init(r *rng.RNG) {
	variance := 2.0 / float64(l.in)
	if l.glorot {
		r.SkipNormals(len(l.W.Data)) // the stream position these models' Glorot weights are pinned at
		variance = 2.0 / float64(l.in+l.out)
	}
	std := sqrt(variance)
	r.Normals(l.W.Data)
	for i, z := range l.W.Data {
		l.W.Data[i] = z * std
	}
	clear(l.B)
}

// take cuts the first n elements off *v as a window whose capacity ends
// with it: an append to the window copies instead of writing past it.
func take(v *tensor.Vector, n int) tensor.Vector {
	w := (*v)[:n:n]
	*v = (*v)[n:]
	return w
}

func checkSize(layer string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("nn: %s size mismatch: got %d, want %d", layer, got, want))
	}
}
