// Package nn is a from-scratch neural-network library sufficient to train
// the simulator's models: multinomial logistic regression and MLPs, built
// from two layers, Dense and ReLU.
//
// The library works one sample at a time with manual backpropagation; a
// batch is a loop that accumulates gradients. This keeps layers simple and
// allocation-free after construction. Networks are NOT safe for concurrent
// use; in the simulator each worker owns one and runs node after node
// through it (Use).
//
// # Flat parameter layout
//
// A Network is one allocation of floats, and layers own no storage: a
// layer constructor allocates only its struct. The vector starts with the
// parameters, then the softmax scratch, then every layer's buffers (its
// output and input gradient), each a window whose capacity ends where the
// next begins. Every Dense layer works on its window of a model vector, in
// layer order and, within a layer, W before B. New points the layers at
// the network's own parameters and draws the initial weights there, from
// the constructors' RNG in layer order; Init draws the same weights from a
// given stream into any vector. The parameters are the model x_i the nodes
// exchange and a parameter file stores, so CopyParamsTo and the SGD update
// are one pass over one slice.
//
// Use re-points every layer's window into another vector of the same
// length, so one network trains and scores many models in turn and a
// node is its model vector alone (learner.NewNodes). Only nn writes a
// model — TrainBatch and Mix, which averages neighborhoods in place —
// whereas Params hands out the vector in use read-only. Gradients, laid
// out the same way, go into a vector the network keeps: its own former
// parameters once it Uses another vector, else one allocated at its first
// train step.
//
// Between Forward and Backward, Dense holds the slice it was given, not a
// copy: a sample or the buffer of the layer below, neither of which
// changes meanwhile. A first-layer Dense computes no input gradient and
// has no buffer for it (New).
package nn

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Layer is one differentiable stage of a network. Forward retains whatever
// state Backward needs, so calls must alternate Forward then Backward for
// the same sample.
type Layer interface {
	// InSize and OutSize are the flat input/output lengths.
	InSize() int
	OutSize() int
	// Forward consumes a flat input and returns a flat output. The returned
	// slice is an internal buffer valid until the next Forward.
	Forward(in tensor.Vector) tensor.Vector
	// Backward consumes dLoss/dOut and returns dLoss/dIn, accumulating
	// parameter gradients. The returned slice is an internal buffer, or
	// nil from a network's first layer.
	Backward(dOut tensor.Vector) tensor.Vector
	// ParamSize is the layer's trainable parameter count, WorkSize the
	// length of the buffers Forward and Backward write.
	ParamSize() int
	WorkSize() int
	// Bind gives the layer its buffers: work, of length WorkSize, a window
	// of its network's vector. New calls it once, in layer order; a layer
	// cannot run before that. A layer with parameters is also a paramLayer.
	Bind(work tensor.Vector)
}

// paramLayer is a layer with parameters. use and bindGrads point it at its
// windows of a model vector and of the gradient vector; init writes initial
// parameters into the window in use, drawing from r or, when r is nil,
// from the stream the layer was built on.
type paramLayer interface {
	use(params tensor.Vector)
	bindGrads(grads tensor.Vector)
	init(r *rng.RNG)
}

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	n        int
	out, dIn tensor.Vector
}

// NewReLU returns a ReLU over vectors of length n.
func NewReLU(n int) *ReLU { return &ReLU{n: n} }

func (l *ReLU) InSize() int             { return l.n }
func (l *ReLU) OutSize() int            { return l.n }
func (l *ReLU) ParamSize() int          { return 0 }
func (l *ReLU) WorkSize() int           { return 2 * l.n }
func (l *ReLU) Bind(work tensor.Vector) { l.out, l.dIn = work[:l.n:l.n], work[l.n:] }

func (l *ReLU) Forward(in tensor.Vector) tensor.Vector {
	checkSize("ReLU", len(in), l.n)
	for i, x := range in {
		if x > 0 {
			l.out[i] = x
		} else {
			l.out[i] = 0
		}
	}
	return l.out
}

// Backward passes the gradient where the input was positive, which is
// where the output is.
func (l *ReLU) Backward(dOut tensor.Vector) tensor.Vector {
	checkSize("ReLU", len(dOut), l.n)
	for i, d := range dOut {
		if l.out[i] > 0 {
			l.dIn[i] = d
		} else {
			l.dIn[i] = 0
		}
	}
	return l.dIn
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
