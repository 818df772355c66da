package nn

import (
	"cmp"

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
	r        *rng.RNG      // the stream New draws the initial weights from
	W        tensor.Matrix // out x in; a header over the network's vector, held by value
	B        tensor.Vector // empty when bias is disabled
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
	return &Dense{in: in, out: out, withBias: withBias, r: r,
		W: tensor.Matrix{Rows: out, Cols: in}, gW: tensor.Matrix{Rows: out, Cols: in}}
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
	if l.withBias {
		for i := range l.outBuf {
			l.outBuf[i] += l.B[i]
		}
	}
	return l.outBuf
}

func (l *Dense) Backward(dOut tensor.Vector) tensor.Vector {
	checkSize("Dense", len(dOut), l.out)
	tensor.OuterAcc(&l.gW, dOut, l.lastIn)
	if l.withBias {
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

func (l *Dense) Bind(work tensor.Vector) {
	l.outBuf = take(&work, l.out)
	if !l.first {
		l.dIn = work
	}
}

// use and bindGrads split at out*in: weights, then the bias (empty without).
func (l *Dense) use(params tensor.Vector) {
	l.W.Data, l.B = params[:l.out*l.in:l.out*l.in], params[l.out*l.in:]
}

func (l *Dense) bindGrads(grads tensor.Vector) {
	l.gW.Data, l.gB = grads[:l.out*l.in], grads[l.out*l.in:]
}

func (l *Dense) init(r *rng.RNG) {
	r, variance := cmp.Or(r, l.r), 2.0/float64(l.in)
	if l.glorot {
		r.SkipNormals(len(l.W.Data)) // the stream position these models' Glorot weights are pinned at
		variance = 2.0 / float64(l.in+l.out)
	}
	normalInit(l.W.Data, variance, r)
	clear(l.B)
}

// normalInit fills w with N(0, variance) weights: He-normal at 2/fanIn,
// Glorot-normal at 2/(fanIn+fanOut).
func normalInit(w []float64, variance float64, r *rng.RNG) {
	std := sqrt(variance)
	r.Normals(w)
	for i, z := range w {
		w[i] = z * std
	}
}
