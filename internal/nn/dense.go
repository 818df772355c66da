package nn

import (
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Dense is a fully connected layer: out = W*in + b. The bias is optional
// so that parameter counts can be matched exactly against reference
// architectures that omit it.
type Dense struct {
	in, out  int
	withBias bool
	glorot   bool          // Glorot-normal weights: the classifier of LogisticRegression and MLP
	r        *rng.RNG      // draws the initial weights in Bind
	W        tensor.Matrix // out x in; a header over the network's vector, held by value
	B        tensor.Vector // nil when bias is disabled
	gW       tensor.Matrix
	gB       tensor.Vector // empty when bias is disabled

	lastIn tensor.Vector // the caller's slice, held from Forward to Backward
	outBuf tensor.Vector
	dIn    tensor.Vector // nil in a network's first layer: nothing reads it
	first  bool
}

// NewDense returns a Dense layer whose weights New draws He-normal from r,
// the right default for ReLU networks. Pass withBias=false to omit the bias.
func NewDense(in, out int, withBias bool, r *rng.RNG) *Dense {
	return &Dense{in: in, out: out, withBias: withBias, r: r}
}

func (l *Dense) InSize() int   { return l.in }
func (l *Dense) OutSize() int  { return l.out }
func (l *Dense) noLayerBelow() { l.first = true }

func (l *Dense) WorkSize() int {
	if l.first {
		return l.out
	}
	return l.out + l.in
}

func (l *Dense) Forward(in tensor.Vector) tensor.Vector {
	checkSize("Dense", len(in), l.in)
	l.lastIn = in
	tensor.MatVecTo(l.outBuf, &l.W, in)
	if l.B != nil {
		for i := range l.outBuf {
			l.outBuf[i] += l.B[i]
		}
	}
	return l.outBuf
}

func (l *Dense) Backward(dOut tensor.Vector) tensor.Vector {
	checkSize("Dense", len(dOut), l.out)
	tensor.OuterAcc(&l.gW, dOut, l.lastIn)
	if l.B != nil {
		tensor.AXPY(l.gB, 1, dOut)
	}
	if l.first {
		return nil
	}
	tensor.MatTVecTo(l.dIn, &l.W, dOut)
	return l.dIn
}

func (l *Dense) ParamSize() int {
	if l.withBias {
		return l.out*l.in + l.out
	}
	return l.out * l.in
}

func (l *Dense) Bind(params, work tensor.Vector) {
	nw := l.out * l.in
	l.W = tensor.Matrix{Rows: l.out, Cols: l.in, Data: params[:nw:nw]}
	if l.glorot {
		l.r.SkipNormals(nw) // the stream position these models' Glorot weights are pinned at
		normalInit(l.W.Data, 2.0/float64(l.in+l.out), l.r)
	} else {
		normalInit(l.W.Data, 2.0/float64(l.in), l.r)
	}
	if l.withBias {
		l.B = params[nw:]
	}
	l.outBuf = take(&work, l.out)
	if !l.first {
		l.dIn = work
	}
}

func (l *Dense) bindGrads(grads tensor.Vector) {
	nw := l.out * l.in
	l.gW, l.gB = tensor.Matrix{Rows: l.out, Cols: l.in, Data: grads[:nw]}, grads[nw:]
}

// normalInit fills w with N(0, variance) weights: He-normal at 2/fanIn,
// Glorot-normal at 2/(fanIn+fanOut).
func normalInit(w []float64, variance float64, r *rng.RNG) {
	std := sqrt(variance)
	for i := range w {
		w[i] = r.NormFloat64() * std
	}
}
