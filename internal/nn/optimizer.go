package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Optimizer applies accumulated gradients to a network's parameters.
// Optimizers are stateful (momentum buffers) and bound to one network.
type Optimizer interface {
	// Step consumes the gradients currently accumulated in the network
	// (divided by batchSize) and updates the parameters.
	Step(net *Network, batchSize int)
}

// SGD is stochastic gradient descent with optional momentum, Nesterov
// acceleration, and decoupled weight decay. With Momentum == 0 and
// WeightDecay == 0 it reproduces Network.TrainBatch's plain update, which
// is what the paper uses (Section 4.2: "trained with SGD").
type SGD struct {
	LR          float64
	Momentum    float64
	Nesterov    bool
	WeightDecay float64

	velocity tensor.Vector // one entry per parameter, sized on first use
}

// NewSGD returns a plain SGD optimizer.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// NewMomentumSGD returns SGD with momentum (and optionally Nesterov).
func NewMomentumSGD(lr, momentum float64, nesterov bool) *SGD {
	return &SGD{LR: lr, Momentum: momentum, Nesterov: nesterov}
}

// Step implements Optimizer.
func (o *SGD) Step(net *Network, batchSize int) {
	if batchSize < 1 {
		panic(fmt.Sprintf("nn: SGD step with batch size %d", batchSize))
	}
	scale := 1.0 / float64(batchSize)
	p, g := net.params, net.grads
	if g == nil {
		panic("nn: SGD step on a network that has accumulated no gradients")
	}
	if o.Momentum == 0 {
		for i := range p {
			step := g[i]*scale + o.WeightDecay*p[i]
			p[i] -= o.LR * step
		}
		return
	}
	if o.velocity == nil {
		o.velocity = tensor.NewVector(len(p))
	}
	v := o.velocity
	if len(v) != len(p) {
		panic("nn: SGD bound to a different network")
	}
	for i := range p {
		grad := g[i]*scale + o.WeightDecay*p[i]
		v[i] = o.Momentum*v[i] + grad
		if o.Nesterov {
			p[i] -= o.LR * (grad + o.Momentum*v[i])
		} else {
			p[i] -= o.LR * v[i]
		}
	}
}

// Reset clears momentum state (used when the model is overwritten by an
// aggregation step and stale velocity would point in an outdated
// direction).
func (o *SGD) Reset() { o.velocity.Zero() }

// TrainBatchWith runs one forward/backward pass over the batch and lets the
// optimizer apply the update. It returns the mean loss.
func (n *Network) TrainBatchWith(opt Optimizer, xs []tensor.Vector, ys []int) float64 {
	loss := n.AccumulateGradients(xs, ys)
	opt.Step(n, len(xs))
	return loss
}

// AccumulateGradients zeroes the gradient vector (a lent one holds another
// network's gradients), then accumulates dLoss/dTheta summed over the batch
// (not averaged), returning the mean loss. Callers apply the update
// themselves (see Optimizer).
func (n *Network) AccumulateGradients(xs []tensor.Vector, ys []int) float64 {
	return n.accumulate(xs, ys, true)
}

// accumulate is AccumulateGradients; without withLoss it skips the one
// logarithm per sample the loss costs and returns 0.
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

// LRSchedule maps a round number to a learning rate.
type LRSchedule interface {
	// At returns the learning rate for round t (0-based).
	At(t int) float64
}

// ConstantLR always returns the same rate.
type ConstantLR float64

// At implements LRSchedule.
func (c ConstantLR) At(int) float64 { return float64(c) }

// StepDecayLR multiplies the base rate by Factor every Every rounds.
type StepDecayLR struct {
	Base   float64
	Factor float64
	Every  int
}

// At implements LRSchedule.
func (s StepDecayLR) At(t int) float64 {
	if s.Every <= 0 {
		return s.Base
	}
	lr := s.Base
	for k := 0; k < t/s.Every; k++ {
		lr *= s.Factor
	}
	return lr
}
