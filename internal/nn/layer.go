// Package nn is a from-scratch neural-network library sufficient to train
// the models of the SkipTrain paper: multinomial logistic regression, MLPs,
// and the paper's two CNNs (the 89,834-parameter GN-LeNet for CIFAR-10 and
// the 1,690,046-parameter LEAF CNN for FEMNIST).
//
// The library works one sample at a time with manual backpropagation; a
// batch is a loop that accumulates gradients. This keeps layers simple and
// allocation-free after construction, which matters when 256 simulated
// nodes each own a model. Networks are NOT safe for concurrent use; in the
// simulator every node goroutine owns its own Network.
//
// # Flat parameter layout
//
// A Network is one allocation of floats, and layers own no storage: a
// layer constructor allocates only its struct. The vector starts with the
// parameters, then the softmax scratch, then every layer's buffers (its
// output and input gradient, and GroupNorm's and MaxPool2D's scratch),
// each a window whose capacity ends where the next begins.
// New binds every parameterised layer to its window of the parameters, in
// layer order and, within a layer, weights before bias (Dense W then B,
// Conv2D K then B, GroupNorm gamma then beta), and the layer draws its
// initial weights there — so the constructors' RNG is consumed by New, in
// layer order. The parameters are the model x_i the nodes exchange and a
// parameter file stores, so CopyParamsTo, SetParams and the SGD update are
// one pass over one slice, and a write through SetParams is at once visible
// to every layer. Only nn writes them — TrainBatch, SetParams and Mix,
// which averages neighborhoods in place — whereas Params hands out the same
// memory read-only. They are a node's only model-sized state: gradients,
// laid out the same way, go into a vector the network is lent (LendGrads).
//
// Between Forward and Backward, Dense and Conv2D hold the slice they were
// given, not a copy: a sample or the buffer of the layer below, neither of
// which changes meanwhile. A first-layer Dense or Conv2D computes no input
// gradient and has no buffer for it (New).
package nn

import (
	"fmt"

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
	// Bind gives the layer its storage, two windows of its network's
	// vector: params, of length ParamSize, becomes its parameters and it
	// initialises them there; work, of length WorkSize, becomes its
	// buffers. New calls it once, in layer order; a layer cannot run before
	// that. A layer with parameters also has the unexported bindGrads,
	// through which LendGrads hands it the window of the gradient vector
	// Backward accumulates into.
	Bind(params, work tensor.Vector)
}

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	n        int
	out, dIn tensor.Vector
}

// NewReLU returns a ReLU over vectors of length n.
func NewReLU(n int) *ReLU { return &ReLU{n: n} }

func (l *ReLU) InSize() int                { return l.n }
func (l *ReLU) OutSize() int               { return l.n }
func (l *ReLU) ParamSize() int             { return 0 }
func (l *ReLU) WorkSize() int              { return 2 * l.n }
func (l *ReLU) Bind(_, work tensor.Vector) { l.out, l.dIn = work[:l.n:l.n], work[l.n:] }

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
