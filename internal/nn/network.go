// Package nn is a from-scratch neural-network library sufficient to train
// the simulator's models: multinomial logistic regression and MLPs, each a
// stack of dense layers, ReLU-rectified below the classifier.
//
// The library works one sample at a time with manual backpropagation; a
// batch is a loop that accumulates gradients. This keeps the layers simple
// and allocation-free after construction. Networks are NOT safe for
// concurrent use; in the simulator each worker owns one and runs node after
// node through it (Use).
//
// # Flat parameter layout
//
// A Network is one allocation of floats beside its struct and its layer
// list. The vector starts with the parameters, then the softmax scratch,
// then every layer's output and input gradient, each a window whose
// capacity ends where the next begins. Every layer works on its window of a
// model vector, in layer order and, within a layer, W before B. A
// constructor points the layers at the network's own parameters and draws
// the initial weights there, from its RNG in layer order; Init draws the
// same weights from a given stream into any vector. The parameters are the
// model x_i the nodes exchange and a parameter file stores, so CopyParamsTo
// and the SGD update are one pass over one slice.
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
// Between forward and backward, a layer holds the slice it was given, not
// a copy: a sample or the output of the layer below, neither of which
// changes meanwhile. A ReLU rectifies its layer's output in place and, on
// the way back, masks in place the gradient the layer above handed down;
// the classifier has none, so the softmax scratch is never masked. The
// first layer computes no input gradient and has no buffer for it.
package nn

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }
func exp(x float64) float64  { return math.Exp(x) }

// Network is an ordered stack of dense layers trained with softmax
// cross-entropy, exactly the loss/optimizer combination of the paper (SGD +
// Cross-Entropy, Section 4.2). The zero value is not usable; build with
// LogisticRegression or MLP.
type Network struct {
	layers []dense
	// params (the model in use, see Use) and grads hold every layer's block
	// back to back, in layer order; the layers work on windows of them.
	// grads is nil until the first train step or the first Use of another
	// vector.
	params, grads tensor.Vector
	probs         tensor.Vector // softmax scratch, len = class count
}

// newNetwork builds a network of layers: it validates that consecutive
// layer sizes chain, allocates the parameters, the softmax scratch and
// every layer's output and input gradient as one vector — no gradient
// vector, see ZeroGrads — and draws the initial weights from r, in layer
// order. Nothing reads the first layer's input gradient: it is skipped.
func newNetwork(r *rng.RNG, layers ...dense) *Network {
	size, work := 0, -layers[0].in
	for i, l := range layers {
		if i > 0 && layers[i-1].out != l.in {
			panic(fmt.Sprintf("nn: layer %d outputs %d but layer %d expects %d", i-1, layers[i-1].out, i, l.in))
		}
		size += l.paramSize()
		work += l.out + l.in
	}
	classes := layers[len(layers)-1].out
	buf := tensor.NewVector(size + classes + work)
	params := take(&buf, size)
	n := &Network{layers: layers, params: params, probs: take(&buf, classes)}
	for i := range layers {
		layers[i].y = take(&buf, layers[i].out)
		if i > 0 {
			layers[i].dx = take(&buf, layers[i].in)
		}
	}
	n.Init(params, r)
	return n
}

// Use makes x, of length ParamCount, the model the network runs, trains
// and hands out as Params: every layer's parameter window is re-pointed
// into x, in the layout newNetwork gave the network's own. When x is first
// another vector and the network has no gradient vector yet, its own
// parameters become its gradient vector, so a worker network costs one
// model vector, not two: a caller must not read or Use them after that.
// It allocates nothing.
func (n *Network) Use(x tensor.Vector) {
	checkSize("Network params", len(x), len(n.params))
	if n.grads == nil && len(x) > 0 && &x[0] != &n.params[0] {
		n.grads = n.params
		n.each(n.grads, (*dense).bindGrads)
	}
	n.params = x
	n.each(x, (*dense).use)
}

// Init uses x and writes initial parameters into it, layer by layer,
// drawing every layer's weights from r: the bits the model's constructor
// drew from that stream in the same state. It allocates nothing.
func (n *Network) Init(x tensor.Vector, r *rng.RNG) {
	n.Use(x)
	for i := range n.layers {
		n.layers[i].init(r)
	}
}

// each hands every layer its window of v, in layer order.
func (n *Network) each(v tensor.Vector, fn func(*dense, tensor.Vector)) {
	for i := range n.layers {
		fn(&n.layers[i], take(&v, n.layers[i].paramSize()))
	}
}

// SameShape reports whether o stacks the same layers as n, size for size:
// then every vector one of them Uses the other can, and either can train
// or score it in the other's place.
func (n *Network) SameShape(o *Network) bool {
	return slices.EqualFunc(n.layers, o.layers, func(a, b dense) bool {
		return a.in == b.in && a.out == b.out && a.bias == b.bias && a.relu == b.relu
	})
}

// ParamCount returns the total number of trainable parameters, the |x| of
// Table 1 in the paper.
func (n *Network) ParamCount() int { return len(n.params) }

// Params returns the model vector in use, not a copy: the network's own
// or the last one passed to Use. It changes whenever the network trains or
// Mix runs; only the vector's owner writes it in place (async's merge, the
// rejoin rule), and everyone else reads it only.
func (n *Network) Params() tensor.Vector { return n.params }

// Forward runs the network and returns the logits (an internal buffer).
func (n *Network) Forward(x tensor.Vector) tensor.Vector {
	for i := range n.layers {
		x = n.layers[i].forward(x)
	}
	return x
}

// CopyParamsTo serializes all parameters into dst, which must have length
// ParamCount. This is the model vector x_i that nodes exchange; Use runs
// the network on such a vector, a loaded parameter file among them.
func (n *Network) CopyParamsTo(dst tensor.Vector) {
	checkSize("Network params", len(dst), len(n.params))
	copy(dst, n.params)
}

// MixBlock bounds how many elements of every model Mix sums before it
// writes them back. With 16 nodes of a few hundred parameters (a Γ-grid
// cell) a longer scratch is more memory than the models themselves.
const MixBlock = 256

// MixBlockLen is the block Mix cuts a span of n elements into: equal
// blocks of at most MixBlock, so 330 elements mix as 165 + 165.
func MixBlockLen(n int) int {
	k := (n-1)/MixBlock + 1
	return (n + k - 1) / k
}

// MixRow has Mix make X sum_k W[k]*V[k], or with no operands keep it.
type MixRow struct {
	X tensor.Vector
	W []float64
	V []tensor.Vector
}

// Mix is Algorithm 1's aggregation (line 8) over elements [lo, hi) of every
// row's model at once, each summed in operand order (tensor.WeightedSumTo).
// It sums a block for every row, into sums, before it writes that block to
// any model: by then nothing has the block left to read, so operands may
// be the rows' own models and the mix is in place. sums holds
// len(rows)*MixBlockLen(hi-lo) elements, ops as many as the longest V.
func Mix(rows []MixRow, lo, hi int, sums tensor.Vector, ops []tensor.Vector) {
	block := MixBlockLen(hi - lo)
	for ; lo < hi; lo += block {
		n := min(block, hi-lo)
		for i, row := range rows {
			for k, v := range row.V {
				checkSize("Mix operand", len(v), len(row.X))
				ops[k] = v[lo : lo+n]
			}
			if len(row.V) > 0 {
				tensor.WeightedSumTo(sums[i*n:(i+1)*n], row.W, ops[:len(row.V)])
			}
		}
		for i, row := range rows {
			if len(row.V) > 0 {
				copy(row.X[lo:lo+n], sums[i*n:(i+1)*n])
			}
		}
	}
}

// ZeroGrads clears the gradient vector; a network that has none yet (it
// trains the parameters it was built with) allocates one. A network keeps its
// gradient vector whichever model it uses: a gradient is live only from
// its accumulation to the update that follows.
func (n *Network) ZeroGrads() {
	if n.grads == nil {
		n.grads = tensor.NewVector(len(n.params))
		n.each(n.grads, (*dense).bindGrads)
	}
	n.grads.Zero()
}

// SoftmaxCrossEntropy computes the loss for one sample and writes
// dLoss/dLogits into dLogits (probs - onehot). logits and dLogits may alias.
func SoftmaxCrossEntropy(logits tensor.Vector, label int, dLogits tensor.Vector) float64 {
	p := softmaxGrad(logits, label, dLogits)
	// Clamp to avoid -Inf on (impossible in exact arithmetic) p == 0.
	if p < 1e-300 {
		p = 1e-300
	}
	return -math.Log(p)
}

// softmaxGrad is SoftmaxCrossEntropy without the loss: it writes probs -
// onehot into dLogits and returns the label's probability, which a caller
// that wants the loss takes the logarithm of and TrainBatch drops.
func softmaxGrad(logits tensor.Vector, label int, dLogits tensor.Vector) float64 {
	if label < 0 || label >= len(logits) {
		panic(fmt.Sprintf("nn: label %d out of range for %d classes", label, len(logits)))
	}
	// Numerically stable softmax.
	maxL := logits[0]
	for _, v := range logits[1:] {
		if v > maxL {
			maxL = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := exp(v - maxL)
		dLogits[i] = e
		sum += e
	}
	for i := range dLogits {
		dLogits[i] /= sum
	}
	p := dLogits[label]
	dLogits[label] = p - 1
	return p
}

// TrainBatch performs one SGD step on a mini-batch: it accumulates gradients
// of the mean cross-entropy over the batch and applies params -= lr * grad.
// It computes no loss. This is one inner iteration of Algorithm 1, lines 5-6.
func (n *Network) TrainBatch(xs []tensor.Vector, ys []int, lr float64) {
	n.accumulate(xs, ys, false)
	tensor.AXPY(n.params, -lr/float64(len(xs)), n.grads)
}

// accumulate zeroes the gradient vector (it holds the last batch's
// gradients), then accumulates dLoss/dTheta summed over the batch (not
// averaged). With withLoss it returns the mean loss; without, it skips the
// one logarithm per sample the loss costs and returns 0.
func (n *Network) accumulate(xs []tensor.Vector, ys []int, withLoss bool) float64 {
	if len(xs) == 0 || len(xs) != len(ys) {
		panic(fmt.Sprintf("nn: bad batch: %d inputs, %d labels", len(xs), len(ys)))
	}
	n.ZeroGrads()
	total := 0.0
	for i, x := range xs {
		if withLoss {
			total += SoftmaxCrossEntropy(n.Forward(x), ys[i], n.probs)
		} else {
			softmaxGrad(n.Forward(x), ys[i], n.probs)
		}
		d := n.probs
		for j := len(n.layers) - 1; j >= 0; j-- {
			d = n.layers[j].backward(d)
		}
	}
	return total / float64(len(xs))
}

// Predict returns the argmax class for one sample.
func (n *Network) Predict(x tensor.Vector) int {
	return tensor.ArgMax(n.Forward(x))
}

// Accuracy returns the Top-1 accuracy over the given samples in [0, 1].
func (n *Network) Accuracy(xs []tensor.Vector, ys []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		if n.Predict(x) == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}
