package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// meanLoss is the mean cross-entropy of net over the samples, 0 for none,
// leaving its parameters as they are.
func meanLoss(net *Network, xs []tensor.Vector, ys []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for i, x := range xs {
		total += SoftmaxCrossEntropy(net.Forward(x), ys[i], net.probs)
	}
	return total / float64(len(xs))
}

func TestParamRoundTrip(t *testing.T) {
	net := MLP(5, []int{7}, 3, rng.New(1))
	p1 := tensor.NewVector(net.ParamCount())
	net.CopyParamsTo(p1)
	// Mutate, restore, compare.
	mutated := p1.Clone()
	for i := range mutated {
		mutated[i] += 1.5
	}
	net.Use(mutated)
	p2 := tensor.NewVector(net.ParamCount())
	net.CopyParamsTo(p2)
	for i := range p2 {
		if p2[i] != mutated[i] {
			t.Fatalf("round trip failed at %d", i)
		}
	}
	net.Use(p1)
	net.CopyParamsTo(p2)
	for i := range p2 {
		if p2[i] != p1[i] {
			t.Fatalf("restore failed at %d", i)
		}
	}
}

func TestUseChangesForward(t *testing.T) {
	net := LogisticRegression(4, 3, rng.New(2))
	x := tensor.Vector{1, 2, 3, 4}
	before := net.Forward(x).Clone()
	p := tensor.NewVector(net.ParamCount())
	net.CopyParamsTo(p)
	for i := range p {
		p[i] = 0
	}
	net.Use(p)
	after := net.Forward(x)
	allZero := true
	for _, v := range after {
		if v != 0 {
			allZero = false
		}
	}
	if !allZero {
		t.Fatalf("zero params should give zero logits, got %v", after)
	}
	if before[0] == 0 && before[1] == 0 && before[2] == 0 {
		t.Fatal("initialized network produced zero logits (init failed?)")
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.Vector{0, 0, 0}
	d := tensor.NewVector(3)
	loss := SoftmaxCrossEntropy(logits, 1, d)
	if math.Abs(loss-math.Log(3)) > 1e-12 {
		t.Fatalf("uniform loss = %v, want ln 3", loss)
	}
	want := []float64{1.0 / 3, 1.0/3 - 1, 1.0 / 3}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Fatalf("dLogits[%d] = %v, want %v", i, d[i], want[i])
		}
	}
	// Gradient sums to zero (softmax simplex property).
	if s := d[0] + d[1] + d[2]; math.Abs(s) > 1e-12 {
		t.Fatalf("gradient sum = %v, want 0", s)
	}
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	logits := tensor.Vector{1e4, -1e4, 0}
	d := tensor.NewVector(3)
	loss := SoftmaxCrossEntropy(logits, 0, d)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss: %v", loss)
	}
	loss = SoftmaxCrossEntropy(logits, 1, d)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss for tiny prob: %v", loss)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	r := rng.New(3)
	net := MLP(4, []int{16}, 2, r)
	// Linearly separable toy task.
	var xs []tensor.Vector
	var ys []int
	for i := 0; i < 64; i++ {
		x := tensor.NewVector(4)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		y := 0
		if x[0]+x[1] > 0 {
			y = 1
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	before := meanLoss(net, xs, ys)
	for epoch := 0; epoch < 60; epoch++ {
		net.TrainBatch(xs, ys, 0.5)
	}
	after := meanLoss(net, xs, ys)
	if after >= before {
		t.Fatalf("loss did not decrease: %v -> %v", before, after)
	}
	if acc := net.Accuracy(xs, ys); acc < 0.95 {
		t.Fatalf("separable task accuracy = %v, want >= 0.95", acc)
	}
}

// TrainBatch computes no loss. The path that does, accumulate with the
// loss, reports meanLoss, and the gradients TrainBatch steps along are that
// path's bit for bit (lr 0 leaves the model where it was).
func TestTrainBatchMatchesLossPathGradients(t *testing.T) {
	net := MLP(3, []int{5}, 2, rng.New(4))
	xs := []tensor.Vector{{1, 0, 0}, {0, 1, 0}, {0.5, -2, 1}}
	ys := []int{0, 1, 1}
	lossBefore := meanLoss(net, xs, ys)
	if got := net.accumulate(xs, ys, true); got != lossBefore {
		t.Fatalf("accumulate loss %v != meanLoss %v", got, lossBefore)
	}
	want := net.grads.Clone()
	net.TrainBatch(xs, ys, 0)
	for i := range want {
		if net.grads[i] != want[i] {
			t.Fatalf("gradient %d: %v without the loss, %v with it", i, net.grads[i], want[i])
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	build := func() (*Network, []tensor.Vector, []int) {
		r := rng.New(5)
		net := MLP(4, []int{8}, 3, r)
		var xs []tensor.Vector
		var ys []int
		for i := 0; i < 10; i++ {
			x := tensor.NewVector(4)
			for j := range x {
				x[j] = r.NormFloat64()
			}
			xs = append(xs, x)
			ys = append(ys, r.Intn(3))
		}
		return net, xs, ys
	}
	n1, xs1, ys1 := build()
	n2, xs2, ys2 := build()
	for i := 0; i < 5; i++ {
		l1, l2 := meanLoss(n1, xs1, ys1), meanLoss(n2, xs2, ys2)
		n1.TrainBatch(xs1, ys1, 0.1)
		n2.TrainBatch(xs2, ys2, 0.1)
		if l1 != l2 {
			t.Fatalf("training not deterministic at step %d: %v vs %v", i, l1, l2)
		}
	}
}

func TestAccuracyEmpty(t *testing.T) {
	net := LogisticRegression(2, 2, rng.New(6))
	if net.Accuracy(nil, nil) != 0 {
		t.Fatal("accuracy of empty set should be 0")
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched layer chain should panic")
		}
	}()
	r := rng.New(7)
	newNetwork(r, dense{in: 3, out: 4, bias: true}, dense{in: 5, out: 2, bias: true})
}

func TestLabelOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range label should panic")
		}
	}()
	SoftmaxCrossEntropy(tensor.Vector{0, 0}, 5, tensor.NewVector(2))
}

func TestBatchValidation(t *testing.T) {
	net := LogisticRegression(2, 2, rng.New(8))
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched batch should panic")
		}
	}()
	net.TrainBatch([]tensor.Vector{{1, 2}}, []int{0, 1}, 0.1)
}

func TestMixingTwoModelsAverages(t *testing.T) {
	// The core DL operation: average two models' parameter vectors and load
	// the result back. Forward of the average on a linear model must equal
	// the average of forwards (linearity in parameters for logits).
	r := rng.New(9)
	a := LogisticRegression(3, 2, r)
	b := LogisticRegression(3, 2, r)
	x := tensor.Vector{0.5, -1, 2}
	la := a.Forward(x).Clone()
	lb := b.Forward(x).Clone()
	pa := tensor.NewVector(a.ParamCount())
	pb := tensor.NewVector(b.ParamCount())
	a.CopyParamsTo(pa)
	b.CopyParamsTo(pb)
	avg := tensor.NewVector(len(pa))
	tensor.WeightedSumTo(avg, []float64{0.5, 0.5}, []tensor.Vector{pa, pb})
	a.Use(avg)
	lavg := a.Forward(x)
	for i := range lavg {
		want := (la[i] + lb[i]) / 2
		if math.Abs(lavg[i]-want) > 1e-12 {
			t.Fatalf("averaged logits[%d] = %v, want %v", i, lavg[i], want)
		}
	}
}

// SameShape holds exactly when two networks stack the same layers: weights
// drawn from other streams do not matter, while another class count, a
// hidden layer, or other hidden layers with as many parameters in all do.
func TestSameShape(t *testing.T) {
	lr := LogisticRegression(4, 3, rng.New(1))
	for _, tc := range []struct {
		a, b *Network
		same bool
	}{
		{lr, LogisticRegression(4, 3, rng.New(2)), true},
		{lr, LogisticRegression(4, 2, rng.New(1)), false},
		{lr, MLP(4, []int{3}, 3, rng.New(1)), false},
		{MLP(4, []int{6, 2}, 3, rng.New(1)), MLP(4, []int{6, 2}, 3, rng.New(3)), true},
		// 43 parameters each: 4·1+1 + 1·7+7 + 7·3+3 and 4·5+5 + 5·3+3.
		{MLP(4, []int{1, 7}, 3, rng.New(1)), MLP(4, []int{5}, 3, rng.New(1)), false},
	} {
		if got := tc.a.SameShape(tc.b); got != tc.same || tc.b.SameShape(tc.a) != tc.same {
			t.Errorf("SameShape of %d- and %d-parameter networks = %v, want %v", tc.a.ParamCount(), tc.b.ParamCount(), got, tc.same)
		}
	}
}
