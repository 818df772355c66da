package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// numericalGrad estimates dLoss/dTheta for every parameter of net by central
// differences, where loss is mean softmax-CE over the batch.
func numericalGrad(net *Network, xs []tensor.Vector, ys []int) tensor.Vector {
	const h = 1e-5
	n := net.ParamCount()
	params := tensor.NewVector(n)
	net.CopyParamsTo(params)
	grad := tensor.NewVector(n)
	for i := 0; i < n; i++ {
		orig := params[i]
		params[i] = orig + h
		net.Use(params)
		lossPlus := meanLoss(net, xs, ys)
		params[i] = orig - h
		net.Use(params)
		lossMinus := meanLoss(net, xs, ys)
		params[i] = orig
		grad[i] = (lossPlus - lossMinus) / (2 * h)
	}
	net.Use(params)
	return grad
}

// analyticGrad runs forward+backward over the batch and extracts the
// accumulated mean gradient (without applying an update).
func analyticGrad(net *Network, xs []tensor.Vector, ys []int) tensor.Vector {
	net.ZeroGrads()
	probs := tensor.NewVector(len(net.probs))
	for i, x := range xs {
		logits := net.Forward(x)
		copy(probs, logits)
		SoftmaxCrossEntropy(probs, ys[i], probs)
		d := tensor.Vector(probs)
		for j := len(net.layers) - 1; j >= 0; j-- {
			d = net.layers[j].backward(d)
		}
	}
	grad := tensor.NewVector(net.ParamCount())
	tensor.ScaleTo(grad, 1/float64(len(xs)), net.grads)
	return grad
}

func checkGradients(t *testing.T, name string, net *Network, batch int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	xs := make([]tensor.Vector, batch)
	ys := make([]int, batch)
	for i := range xs {
		xs[i] = tensor.NewVector(net.layers[0].in)
		for j := range xs[i] {
			xs[i][j] = r.NormFloat64()
		}
		ys[i] = r.Intn(len(net.probs))
	}
	num := numericalGrad(net, xs, ys)
	ana := analyticGrad(net, xs, ys)
	worst := 0.0
	worstIdx := -1
	for i := range num {
		denom := math.Abs(num[i]) + math.Abs(ana[i]) + 1e-8
		rel := math.Abs(num[i]-ana[i]) / denom
		if rel > worst {
			worst, worstIdx = rel, i
		}
	}
	if worst > 2e-4 {
		t.Fatalf("%s: gradient mismatch at param %d: numerical=%v analytic=%v (rel %v)",
			name, worstIdx, num[worstIdx], ana[worstIdx], worst)
	}
}

func TestGradCheckLogisticRegression(t *testing.T) {
	checkGradients(t, "logreg", LogisticRegression(7, 4, rng.New(1)), 5, 11)
}

func TestGradCheckDenseNoBias(t *testing.T) {
	net := newNetwork(rng.New(2), dense{in: 6, out: 5, relu: true}, dense{in: 5, out: 3, bias: true})
	checkGradients(t, "dense-nobias", net, 4, 12)
}

func TestGradCheckMLP(t *testing.T) {
	checkGradients(t, "mlp", MLP(6, []int{9, 7}, 3, rng.New(4)), 4, 13)
}
