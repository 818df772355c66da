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
	probs := tensor.NewVector(net.OutSize())
	for i, x := range xs {
		logits := net.Forward(x)
		copy(probs, logits)
		SoftmaxCrossEntropy(probs, ys[i], probs)
		d := tensor.Vector(probs)
		for j := len(net.layers) - 1; j >= 0; j-- {
			d = net.layers[j].Backward(d)
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
		xs[i] = tensor.NewVector(net.InSize())
		for j := range xs[i] {
			xs[i][j] = r.NormFloat64()
		}
		ys[i] = r.Intn(net.OutSize())
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
	net := New(NewDense(6, 5, false, rng.New(2)), NewReLU(5), NewDense(5, 3, true, rng.New(3)))
	checkGradients(t, "dense-nobias", net, 4, 12)
}

func TestGradCheckMLP(t *testing.T) {
	checkGradients(t, "mlp", MLP(6, []int{9, 7}, 3, rng.New(4)), 4, 13)
}

func TestGradCheckConv(t *testing.T) {
	r := rng.New(7)
	conv := NewConv2D(2, 6, 6, 3, 3, 3, 1, r)
	out := conv.OutSize()
	net := New(conv, NewReLU(out), NewDense(out, 4, true, r))
	checkGradients(t, "conv", net, 3, 15)
}

func TestGradCheckConvNoPad(t *testing.T) {
	r := rng.New(8)
	conv := NewConv2D(1, 5, 5, 2, 3, 3, 0, r)
	net := New(conv, NewDense(conv.OutSize(), 3, true, r))
	checkGradients(t, "conv-nopad", net, 3, 16)
}

func TestGradCheckMaxPool(t *testing.T) {
	r := rng.New(9)
	conv := NewConv2D(1, 6, 6, 2, 3, 3, 1, r)
	pool := NewMaxPool2D(2, 6, 6, 2)
	net := New(conv, pool, NewDense(pool.OutSize(), 3, true, r))
	checkGradients(t, "maxpool", net, 3, 17)
}

func TestGradCheckGroupNorm(t *testing.T) {
	r := rng.New(10)
	conv := NewConv2D(1, 4, 4, 4, 3, 3, 1, r)
	gn := NewGroupNorm(4, 4, 4, 2)
	net := New(conv, gn, NewReLU(4*4*4), NewDense(4*4*4, 3, true, r))
	checkGradients(t, "groupnorm", net, 3, 18)
}

func TestGradCheckGroupNormSingleGroup(t *testing.T) {
	r := rng.New(11)
	gn := NewGroupNorm(2, 3, 3, 1)
	net := New(NewDense(4, 2*3*3, true, r), gn, NewDense(2*3*3, 3, true, r))
	checkGradients(t, "groupnorm-1g", net, 3, 19)
}

func TestGradCheckSmallCNN(t *testing.T) {
	checkGradients(t, "smallcnn", smallCNN(1, 6, 6, 3, rng.New(12)), 2, 20)
}

func TestGradCheckMiniGNLeNet(t *testing.T) {
	// A shrunken version of the CIFAR GN-LeNet exercising the exact layer
	// sequence (conv -> GN -> ReLU -> pool, x2, then FC) at checkable cost.
	r := rng.New(13)
	conv1 := NewConv2D(2, 8, 8, 4, 5, 5, 2, r)
	gn1 := NewGroupNorm(4, 8, 8, 2)
	relu1 := NewReLU(4 * 8 * 8)
	pool1 := NewMaxPool2D(4, 8, 8, 2)
	conv2 := NewConv2D(4, 4, 4, 4, 3, 3, 1, r)
	gn2 := NewGroupNorm(4, 4, 4, 2)
	relu2 := NewReLU(4 * 4 * 4)
	pool2 := NewMaxPool2D(4, 4, 4, 2)
	fc := NewDense(4*2*2, 4, true, r)
	net := New(conv1, gn1, relu1, pool1, conv2, gn2, relu2, pool2, fc)
	checkGradients(t, "mini-gnlenet", net, 2, 21)
}
