package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }
func exp(x float64) float64  { return math.Exp(x) }

// Network is an ordered stack of layers trained with softmax cross-entropy,
// exactly the loss/optimizer combination of the paper (SGD + Cross-Entropy,
// Section 4.2). The zero value is not usable; build with New.
type Network struct {
	layers []Layer
	// params and grads hold every layer's block back to back, in layer order;
	// the layers work on windows of them. grads is nil until it is needed.
	params, grads tensor.Vector
	probs         tensor.Vector // softmax scratch, len = class count
}

// New builds a network: it validates that consecutive layer sizes chain,
// allocates the parameters, the softmax scratch and every layer's buffers
// as one vector — no gradient vector, see LendGrads — and binds each layer
// to its windows of it in layer order (which is when weights are drawn).
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
		l.Bind(take(&params, l.ParamSize()), take(&buf, l.WorkSize()))
	}
	return n
}

// InSize returns the flat input length the network expects.
func (n *Network) InSize() int { return n.layers[0].InSize() }

// OutSize returns the number of output logits (classes).
func (n *Network) OutSize() int { return n.layers[len(n.layers)-1].OutSize() }

// ParamCount returns the total number of trainable parameters, the |x| of
// Table 1 in the paper.
func (n *Network) ParamCount() int { return len(n.params) }

// Params returns the model vector x_i itself, not a copy: the same slice
// for the network's life. It changes whenever the network trains or SetParams
// or Mix runs; only the network's owner writes it in place (async's merge,
// the evaluator's mean model), and everyone else reads it only.
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
// ParamCount. This is the model vector x_i that nodes exchange.
func (n *Network) CopyParamsTo(dst tensor.Vector) {
	checkSize("Network params", len(dst), len(n.params))
	copy(dst, n.params)
}

// SetParams loads all parameters from src (length ParamCount), the inverse
// of CopyParamsTo. Aggregated neighbor averages re-enter the model here.
func (n *Network) SetParams(src tensor.Vector) {
	checkSize("Network params", len(src), len(n.params))
	copy(n.params, src)
}

// MixBlock is how many elements of every model Mix sums before it writes
// them back. With 16 nodes of a few hundred parameters (a Γ-grid cell) a
// longer scratch is more memory than the gradient vectors LendGrads saves.
const MixBlock = 256

// MixRow has Mix make Net's model sum_k W[k]*V[k], or with no operands keep it.
type MixRow struct {
	Net *Network
	W   []float64
	V   []tensor.Vector
}

// Mix is Algorithm 1's aggregation (line 8) over elements [lo, hi) of every
// row's network at once, each summed in operand order (tensor.WeightedSumTo).
// It sums a block for every row, into sums, before it writes that block to
// any network: by then nothing has the block left to read, so operands may
// be the networks' own Params and the mix is in place. sums holds
// len(rows)*min(MixBlock, hi-lo) elements, ops as many as the longest V.
func Mix(rows []MixRow, lo, hi int, sums tensor.Vector, ops []tensor.Vector) {
	for ; lo < hi; lo += MixBlock {
		n := min(MixBlock, hi-lo)
		for i, row := range rows {
			for k, v := range row.V {
				checkSize("Mix operand", len(v), len(row.Net.params))
				ops[k] = v[lo : lo+n]
			}
			if len(row.V) > 0 {
				tensor.WeightedSumTo(sums[i*n:(i+1)*n], row.W, ops[:len(row.V)])
			}
		}
		for i, row := range rows {
			if len(row.V) > 0 {
				copy(row.Net.params[lo:lo+n], sums[i*n:(i+1)*n])
			}
		}
	}
}

// LendGrads makes g, of length ParamCount, the vector the network
// accumulates gradients into. A gradient is live only from its accumulation
// to the update that follows, so networks that train in turn can share one.
func (n *Network) LendGrads(g tensor.Vector) {
	checkSize("Network gradients", len(g), len(n.params))
	n.grads = g
	for _, l := range n.layers {
		if size := l.ParamSize(); size > 0 {
			l.(interface{ bindGrads(tensor.Vector) }).bindGrads(g[:size])
			g = g[size:]
		}
	}
}

// ZeroGrads clears the gradient vector; a network lent none allocates one.
func (n *Network) ZeroGrads() {
	if n.grads == nil {
		n.LendGrads(tensor.NewVector(len(n.params)))
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

// accumulate zeroes the gradient vector (a lent one holds another network's
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
