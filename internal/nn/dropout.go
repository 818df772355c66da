package nn

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// TrainModeSetter is implemented by layers that behave differently during
// training and inference (Dropout). Network.SetTraining fans out to them.
type TrainModeSetter interface {
	SetTraining(training bool)
}

// SetTraining switches every mode-aware layer between training and
// inference behavior. Networks start in training mode.
func (n *Network) SetTraining(training bool) {
	for _, l := range n.layers {
		if m, ok := l.(TrainModeSetter); ok {
			m.SetTraining(training)
		}
	}
}

// Dropout zeroes activations with probability Rate during training and
// scales survivors by 1/(1-Rate) (inverted dropout), acting as identity at
// inference time.
type Dropout struct {
	stateless
	n        int
	rate     float64
	r        *rng.RNG
	training bool
	mask     []bool
	out      tensor.Vector
	dIn      tensor.Vector
}

// NewDropout builds a dropout layer over vectors of length n. rate must be
// in [0, 1).
func NewDropout(n int, rate float64, r *rng.RNG) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v outside [0,1)", rate))
	}
	return &Dropout{
		n: n, rate: rate, r: r, training: true,
		mask: make([]bool, n),
		out:  tensor.NewVector(n),
		dIn:  tensor.NewVector(n),
	}
}

func (l *Dropout) InSize() int  { return l.n }
func (l *Dropout) OutSize() int { return l.n }

// SetTraining implements TrainModeSetter.
func (l *Dropout) SetTraining(training bool) { l.training = training }

func (l *Dropout) Forward(in tensor.Vector) tensor.Vector {
	checkSize("Dropout", len(in), l.n)
	if !l.training || l.rate == 0 {
		copy(l.out, in)
		return l.out
	}
	keep := 1 - l.rate
	inv := 1 / keep
	for i, x := range in {
		if l.r.Float64() < keep {
			l.mask[i] = true
			l.out[i] = x * inv
		} else {
			l.mask[i] = false
			l.out[i] = 0
		}
	}
	return l.out
}

func (l *Dropout) Backward(dOut tensor.Vector) tensor.Vector {
	checkSize("Dropout", len(dOut), l.n)
	if !l.training || l.rate == 0 {
		copy(l.dIn, dOut)
		return l.dIn
	}
	inv := 1 / (1 - l.rate)
	for i, d := range dOut {
		if l.mask[i] {
			l.dIn[i] = d * inv
		} else {
			l.dIn[i] = 0
		}
	}
	return l.dIn
}

// AvgPool2D averages each win x win block (window == stride).
type AvgPool2D struct {
	stateless
	c, inH, inW int
	win         int
	outH, outW  int
	outBuf      tensor.Vector
	dIn         tensor.Vector
}

// NewAvgPool2D pools each win x win block to its mean.
func NewAvgPool2D(c, inH, inW, win int) *AvgPool2D {
	outH := inH / win
	outW := inW / win
	if outH == 0 || outW == 0 {
		panic("nn: AvgPool2D window larger than input")
	}
	return &AvgPool2D{
		c: c, inH: inH, inW: inW, win: win,
		outH: outH, outW: outW,
		outBuf: tensor.NewVector(c * outH * outW),
		dIn:    tensor.NewVector(c * inH * inW),
	}
}

func (l *AvgPool2D) InSize() int  { return l.c * l.inH * l.inW }
func (l *AvgPool2D) OutSize() int { return l.c * l.outH * l.outW }

// OutShape returns the output (channels, height, width).
func (l *AvgPool2D) OutShape() (c, h, w int) { return l.c, l.outH, l.outW }

func (l *AvgPool2D) Forward(in tensor.Vector) tensor.Vector {
	checkSize("AvgPool2D", len(in), l.InSize())
	inv := 1.0 / float64(l.win*l.win)
	for c := 0; c < l.c; c++ {
		inPlane := in[c*l.inH*l.inW : (c+1)*l.inH*l.inW]
		for oy := 0; oy < l.outH; oy++ {
			for ox := 0; ox < l.outW; ox++ {
				s := 0.0
				for wy := 0; wy < l.win; wy++ {
					row := (oy*l.win + wy) * l.inW
					for wx := 0; wx < l.win; wx++ {
						s += inPlane[row+ox*l.win+wx]
					}
				}
				l.outBuf[(c*l.outH+oy)*l.outW+ox] = s * inv
			}
		}
	}
	return l.outBuf
}

func (l *AvgPool2D) Backward(dOut tensor.Vector) tensor.Vector {
	checkSize("AvgPool2D", len(dOut), l.OutSize())
	l.dIn.Zero()
	inv := 1.0 / float64(l.win*l.win)
	for c := 0; c < l.c; c++ {
		dPlane := l.dIn[c*l.inH*l.inW : (c+1)*l.inH*l.inW]
		for oy := 0; oy < l.outH; oy++ {
			for ox := 0; ox < l.outW; ox++ {
				g := dOut[(c*l.outH+oy)*l.outW+ox] * inv
				for wy := 0; wy < l.win; wy++ {
					row := (oy*l.win + wy) * l.inW
					for wx := 0; wx < l.win; wx++ {
						dPlane[row+ox*l.win+wx] += g
					}
				}
			}
		}
	}
	return l.dIn
}
