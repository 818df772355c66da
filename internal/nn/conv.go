package nn

import (
	"cmp"
	"fmt"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Conv2D is a 2D convolution over CHW-ordered flat inputs with stride 1 and
// symmetric zero padding. Kernels are stored as a flat block in
// [outC][inC][kh][kw] order followed by one bias per output channel, which
// matches the PyTorch parameter counting the paper's model sizes come from.
type Conv2D struct {
	inC, inH, inW int
	outC, kH, kW  int
	pad           int
	outH, outW    int
	r             *rng.RNG      // the stream New draws the initial kernels from
	K             tensor.Vector // kernels, len outC*inC*kH*kW
	B             tensor.Vector // len outC
	gK, gB        tensor.Vector
	lastIn        tensor.Vector // the caller's slice, held from Forward to Backward
	outBuf        tensor.Vector
	dIn           tensor.Vector // nil in a network's first layer: nothing reads it
	first         bool
}

// NewConv2D constructs the layer; New draws its kernels He-normal from r.
// Output spatial size is H+2*pad-kH+1 (stride fixed at 1); it panics if
// that is not positive.
func NewConv2D(inC, inH, inW, outC, kH, kW, pad int, r *rng.RNG) *Conv2D {
	outH := inH + 2*pad - kH + 1
	outW := inW + 2*pad - kW + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("nn: Conv2D output %dx%d not positive", outH, outW))
	}
	return &Conv2D{inC: inC, inH: inH, inW: inW, outC: outC, kH: kH, kW: kW, pad: pad, outH: outH, outW: outW, r: r}
}

func (l *Conv2D) InSize() int   { return l.inC * l.inH * l.inW }
func (l *Conv2D) OutSize() int  { return l.outC * l.outH * l.outW }
func (l *Conv2D) noLayerBelow() { l.first = true }

func (l *Conv2D) WorkSize() int {
	if l.first {
		return l.OutSize()
	}
	return l.OutSize() + l.InSize()
}

func (l *Conv2D) Forward(in tensor.Vector) tensor.Vector {
	checkSize("Conv2D", len(in), l.InSize())
	l.lastIn = in
	for oc := 0; oc < l.outC; oc++ {
		bias := l.B[oc]
		outPlane := l.outBuf[oc*l.outH*l.outW : (oc+1)*l.outH*l.outW]
		for oy := 0; oy < l.outH; oy++ {
			for ox := 0; ox < l.outW; ox++ {
				s := bias
				for ic := 0; ic < l.inC; ic++ {
					inPlane := in[ic*l.inH*l.inW : (ic+1)*l.inH*l.inW]
					kBase := ((oc*l.inC + ic) * l.kH) * l.kW
					for ky := 0; ky < l.kH; ky++ {
						iy := oy + ky - l.pad
						if iy < 0 || iy >= l.inH {
							continue
						}
						rowIn := inPlane[iy*l.inW : (iy+1)*l.inW]
						rowK := l.K[kBase+ky*l.kW : kBase+(ky+1)*l.kW]
						for kx := 0; kx < l.kW; kx++ {
							ix := ox + kx - l.pad
							if ix < 0 || ix >= l.inW {
								continue
							}
							s += rowK[kx] * rowIn[ix]
						}
					}
				}
				outPlane[oy*l.outW+ox] = s
			}
		}
	}
	return l.outBuf
}

func (l *Conv2D) Backward(dOut tensor.Vector) tensor.Vector {
	checkSize("Conv2D", len(dOut), l.OutSize())
	l.dIn.Zero()
	var dInPlane tensor.Vector
	for oc := 0; oc < l.outC; oc++ {
		dPlane := dOut[oc*l.outH*l.outW : (oc+1)*l.outH*l.outW]
		for oy := 0; oy < l.outH; oy++ {
			for ox := 0; ox < l.outW; ox++ {
				g := dPlane[oy*l.outW+ox]
				if g == 0 {
					continue
				}
				l.gB[oc] += g
				for ic := 0; ic < l.inC; ic++ {
					inPlane := l.lastIn[ic*l.inH*l.inW : (ic+1)*l.inH*l.inW]
					if !l.first {
						dInPlane = l.dIn[ic*l.inH*l.inW : (ic+1)*l.inH*l.inW]
					}
					kBase := ((oc*l.inC + ic) * l.kH) * l.kW
					for ky := 0; ky < l.kH; ky++ {
						iy := oy + ky - l.pad
						if iy < 0 || iy >= l.inH {
							continue
						}
						for kx := 0; kx < l.kW; kx++ {
							ix := ox + kx - l.pad
							if ix < 0 || ix >= l.inW {
								continue
							}
							idx := iy*l.inW + ix
							kIdx := kBase + ky*l.kW + kx
							l.gK[kIdx] += g * inPlane[idx]
							if dInPlane != nil {
								dInPlane[idx] += g * l.K[kIdx]
							}
						}
					}
				}
			}
		}
	}
	return l.dIn
}

func (l *Conv2D) ParamSize() int { return l.outC*l.inC*l.kH*l.kW + l.outC }

func (l *Conv2D) Bind(work tensor.Vector) {
	l.outBuf = take(&work, l.OutSize())
	if !l.first {
		l.dIn = work
	}
}

func (l *Conv2D) use(params tensor.Vector) {
	nk := len(params) - l.outC
	l.K, l.B = params[:nk:nk], params[nk:]
}

func (l *Conv2D) bindGrads(grads tensor.Vector) { l.gK, l.gB = grads[:len(l.K)], grads[len(l.K):] }

func (l *Conv2D) init(r *rng.RNG) {
	normalInit(l.K, 2.0/float64(l.inC*l.kH*l.kW), cmp.Or(r, l.r))
	clear(l.B)
}

// MaxPool2D is a max-pooling layer with square window and equal stride
// (window == stride, the common non-overlapping form).
type MaxPool2D struct {
	c, inH, inW int
	win         int
	outH, outW  int
	outBuf      tensor.Vector
	dIn         tensor.Vector
	argmax      tensor.Vector // input indices, exact as floats
}

// NewMaxPool2D pools each win x win block to its maximum. Input spatial
// dimensions need not be divisible by win; the trailing partial window is
// pooled over the available elements (PyTorch floor mode discards them, but
// every shape used here divides evenly — a test asserts that).
func NewMaxPool2D(c, inH, inW, win int) *MaxPool2D {
	outH := inH / win
	outW := inW / win
	if outH == 0 || outW == 0 {
		panic("nn: MaxPool2D window larger than input")
	}
	return &MaxPool2D{c: c, inH: inH, inW: inW, win: win, outH: outH, outW: outW}
}

func (l *MaxPool2D) InSize() int    { return l.c * l.inH * l.inW }
func (l *MaxPool2D) OutSize() int   { return l.c * l.outH * l.outW }
func (l *MaxPool2D) ParamSize() int { return 0 }
func (l *MaxPool2D) WorkSize() int  { return 2*l.OutSize() + l.InSize() }

func (l *MaxPool2D) Bind(work tensor.Vector) {
	n := l.OutSize()
	l.outBuf, l.argmax = take(&work, n), take(&work, n)
	l.dIn = work
}

func (l *MaxPool2D) Forward(in tensor.Vector) tensor.Vector {
	checkSize("MaxPool2D", len(in), l.InSize())
	for c := 0; c < l.c; c++ {
		inPlane := in[c*l.inH*l.inW : (c+1)*l.inH*l.inW]
		for oy := 0; oy < l.outH; oy++ {
			for ox := 0; ox < l.outW; ox++ {
				best := -1
				bestV := 0.0
				for wy := 0; wy < l.win; wy++ {
					iy := oy*l.win + wy
					for wx := 0; wx < l.win; wx++ {
						ix := ox*l.win + wx
						idx := iy*l.inW + ix
						if best == -1 || inPlane[idx] > bestV {
							best, bestV = idx, inPlane[idx]
						}
					}
				}
				oIdx := (c*l.outH+oy)*l.outW + ox
				l.outBuf[oIdx] = bestV
				l.argmax[oIdx] = float64(c*l.inH*l.inW + best)
			}
		}
	}
	return l.outBuf
}

func (l *MaxPool2D) Backward(dOut tensor.Vector) tensor.Vector {
	checkSize("MaxPool2D", len(dOut), l.OutSize())
	l.dIn.Zero()
	for i, d := range dOut {
		l.dIn[int(l.argmax[i])] += d
	}
	return l.dIn
}
