package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }
func exp(x float64) float64  { return math.Exp(x) }

// Network is an ordered stack of layers trained with softmax cross-entropy,
// exactly the loss/optimizer combination of the paper (SGD + Cross-Entropy,
// Section 4.2). The zero value is not usable; build with New.
type Network struct {
	layers []Layer
	// params (the model in use, see Use) and grads hold every layer's block
	// back to back, in layer order; the layers work on windows of them.
	// grads is nil until the first train step or the first Use of another
	// vector.
	params, grads tensor.Vector
	probs         tensor.Vector // softmax scratch, len = class count
}

// New builds a network: it validates that consecutive layer sizes chain,
// allocates the parameters, the softmax scratch and every layer's buffers
// as one vector — no gradient vector, see ZeroGrads — binds each layer to
// its windows of it and draws the initial weights, in layer order.
// Nothing reads the first layer's input gradient: it is skipped.
func New(layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: empty network")
	}
	for i := 1; i < len(layers); i++ {
		if layers[i-1].OutSize() != layers[i].InSize() {
			panic(fmt.Sprintf("nn: layer %d outputs %d but layer %d expects %d",
				i-1, layers[i-1].OutSize(), i, layers[i].InSize()))
		}
	}
	if l, ok := layers[0].(interface{ noLayerBelow() }); ok {
		l.noLayerBelow()
	}
	size, classes, work := 0, layers[len(layers)-1].OutSize(), 0
	for _, l := range layers {
		size += l.ParamSize()
		work += l.WorkSize()
	}
	buf := tensor.NewVector(size + classes + work)
	params := take(&buf, size)
	n := &Network{layers: layers, params: params, probs: take(&buf, classes)}
	for _, l := range layers {
		l.Bind(take(&buf, l.WorkSize()))
	}
	n.Init(params, nil)
	return n
}

// Use makes x, of length ParamCount, the model the network runs, trains
// and hands out as Params: every layer's parameter window is re-pointed
// into x, in the layout New gave the network's own. When x is first
// another vector and the network has no gradient vector yet, its own
// parameters become its gradient vector, so a worker network costs one
// model vector, not two: a caller must not read or Use them after that.
// It allocates nothing.
func (n *Network) Use(x tensor.Vector) {
	checkSize("Network params", len(x), len(n.params))
	if n.grads == nil && len(x) > 0 && &x[0] != &n.params[0] {
		n.grads = n.params
		n.each(n.grads, paramLayer.bindGrads)
	}
	n.params = x
	n.each(x, paramLayer.use)
}

// Init uses x and writes initial parameters into it, layer by layer as New
// does, drawing every layer's weights from r: for a network whose layers
// were all built on one stream, these are the bits New drew from that
// stream in the same state. It allocates nothing.
func (n *Network) Init(x tensor.Vector, r *rng.RNG) {
	n.Use(x)
	n.each(x, func(p paramLayer, _ tensor.Vector) { p.init(r) })
}

// each hands every parameterised layer its window of v, in layer order.
func (n *Network) each(v tensor.Vector, fn func(paramLayer, tensor.Vector)) {
	for _, l := range n.layers {
		if p, ok := l.(paramLayer); ok {
			fn(p, take(&v, l.ParamSize()))
		}
	}
}

// InSize returns the flat input length the network expects.
func (n *Network) InSize() int { return n.layers[0].InSize() }

// OutSize returns the number of output logits (classes).
func (n *Network) OutSize() int { return n.layers[len(n.layers)-1].OutSize() }

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
	out := x
	for _, l := range n.layers {
		out = l.Forward(out)
	}
	return out
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
// trains the parameters New gave it) allocates one. A network keeps its
// gradient vector whichever model it uses: a gradient is live only from
// its accumulation to the update that follows.
func (n *Network) ZeroGrads() {
	if n.grads == nil {
		n.grads = tensor.NewVector(len(n.params))
		n.each(n.grads, paramLayer.bindGrads)
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
			d = n.layers[j].Backward(d)
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
