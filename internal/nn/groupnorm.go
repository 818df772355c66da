package nn

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// groupNormEps matches PyTorch's default epsilon for GroupNorm.
const groupNormEps = 1e-5

// GroupNorm normalizes a CHW-ordered activation over groups of channels and
// applies a per-channel affine transform (gamma, beta). The paper's CIFAR-10
// model is DecentralizePy's GN-LeNet, whose 89,834-parameter count includes
// the 2-per-channel GroupNorm affines; implementing it is what lets this
// repo reproduce the model size exactly.
type GroupNorm struct {
	c, h, w int
	groups  int
	gamma   tensor.Vector // len c
	beta    tensor.Vector
	gGamma  tensor.Vector
	gBeta   tensor.Vector

	xhat   tensor.Vector
	invStd tensor.Vector // per group
	outBuf tensor.Vector
	dIn    tensor.Vector
}

// NewGroupNorm constructs a GroupNorm over (c, h, w) activations with the
// given group count. groups must divide c. Gamma initializes to 1, beta to 0.
func NewGroupNorm(c, h, w, groups int) *GroupNorm {
	if groups <= 0 || c%groups != 0 {
		panic(fmt.Sprintf("nn: GroupNorm groups=%d does not divide channels=%d", groups, c))
	}
	return &GroupNorm{c: c, h: h, w: w, groups: groups}
}

func (l *GroupNorm) InSize() int   { return l.c * l.h * l.w }
func (l *GroupNorm) OutSize() int  { return l.c * l.h * l.w }
func (l *GroupNorm) WorkSize() int { return 3*l.InSize() + l.groups }

func (l *GroupNorm) Forward(in tensor.Vector) tensor.Vector {
	checkSize("GroupNorm", len(in), l.InSize())
	spatial := l.h * l.w
	chPerGroup := l.c / l.groups
	m := chPerGroup * spatial
	for g := 0; g < l.groups; g++ {
		lo := g * m
		hi := lo + m
		seg := in[lo:hi]
		mean := 0.0
		for _, x := range seg {
			mean += x
		}
		mean /= float64(m)
		varSum := 0.0
		for _, x := range seg {
			d := x - mean
			varSum += d * d
		}
		variance := varSum / float64(m)
		invStd := 1 / sqrt(variance+groupNormEps)
		l.invStd[g] = invStd
		for i := lo; i < hi; i++ {
			l.xhat[i] = (in[i] - mean) * invStd
		}
	}
	for c := 0; c < l.c; c++ {
		ga, be := l.gamma[c], l.beta[c]
		for s := 0; s < spatial; s++ {
			idx := c*spatial + s
			l.outBuf[idx] = ga*l.xhat[idx] + be
		}
	}
	return l.outBuf
}

func (l *GroupNorm) Backward(dOut tensor.Vector) tensor.Vector {
	checkSize("GroupNorm", len(dOut), l.OutSize())
	spatial := l.h * l.w
	chPerGroup := l.c / l.groups
	m := chPerGroup * spatial
	// Per-channel affine gradients.
	for c := 0; c < l.c; c++ {
		for s := 0; s < spatial; s++ {
			idx := c*spatial + s
			l.gGamma[c] += dOut[idx] * l.xhat[idx]
			l.gBeta[c] += dOut[idx]
		}
	}
	// Input gradient, layer-norm style within each group:
	// dx = invStd/m * (m*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat))
	for g := 0; g < l.groups; g++ {
		lo := g * m
		hi := lo + m
		var sumDx, sumDxX float64
		for i := lo; i < hi; i++ {
			c := i / spatial
			dxhat := dOut[i] * l.gamma[c]
			sumDx += dxhat
			sumDxX += dxhat * l.xhat[i]
		}
		invStd := l.invStd[g]
		fm := float64(m)
		for i := lo; i < hi; i++ {
			c := i / spatial
			dxhat := dOut[i] * l.gamma[c]
			l.dIn[i] = invStd / fm * (fm*dxhat - sumDx - l.xhat[i]*sumDxX)
		}
	}
	return l.dIn
}

func (l *GroupNorm) ParamSize() int { return 2 * l.c }

func (l *GroupNorm) Bind(work tensor.Vector) {
	n := l.InSize()
	l.xhat, l.invStd, l.outBuf = take(&work, n), take(&work, l.groups), take(&work, n)
	l.dIn = work
}

func (l *GroupNorm) use(params tensor.Vector) { l.gamma, l.beta = params[:l.c:l.c], params[l.c:] }

func (l *GroupNorm) bindGrads(grads tensor.Vector) { l.gGamma, l.gBeta = grads[:l.c], grads[l.c:] }

func (l *GroupNorm) init(*rng.RNG) {
	for i := range l.gamma {
		l.gamma[i] = 1
	}
	clear(l.beta)
}
