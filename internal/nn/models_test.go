package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestPaperModelSizes pins the parameter counts to the exact |x| values of
// Table 1 in the paper: 89,834 for CIFAR-10 and 1,690,046 for FEMNIST.
// These counts feed the energy model, so they must be exact.
func TestPaperModelSizes(t *testing.T) {
	if n := CIFARGNLeNet(rng.New(1)).ParamCount(); n != 89834 {
		t.Fatalf("CIFAR GN-LeNet has %d params, paper reports 89834", n)
	}
	if n := FEMNISTCNN(rng.New(1)).ParamCount(); n != 1690046 {
		t.Fatalf("FEMNIST CNN has %d params, paper reports 1690046", n)
	}
}

func TestPaperModelShapes(t *testing.T) {
	cifar := CIFARGNLeNet(rng.New(2))
	if cifar.InSize() != 3*32*32 || cifar.OutSize() != 10 {
		t.Fatalf("CIFAR model shape %d->%d", cifar.InSize(), cifar.OutSize())
	}
	femnist := FEMNISTCNN(rng.New(2))
	if femnist.InSize() != 28*28 || femnist.OutSize() != 62 {
		t.Fatalf("FEMNIST model shape %d->%d", femnist.InSize(), femnist.OutSize())
	}
}

func TestPaperModelsForwardBackward(t *testing.T) {
	// One full train step on each paper model: shapes chain, loss is finite.
	if testing.Short() {
		t.Skip("paper-size models are slow in -short mode")
	}
	for name, build := range map[string]func() *Network{
		"cifar":   func() *Network { return CIFARGNLeNet(rng.New(3)) },
		"femnist": func() *Network { return FEMNISTCNN(rng.New(3)) },
	} {
		net := build()
		r := rng.New(4)
		x := tensor.NewVector(net.InSize())
		for i := range x {
			x[i] = r.NormFloat64()
		}
		xs, ys := []tensor.Vector{x}, []int{1}
		loss := net.accumulate(xs, ys, true)
		net.TrainBatch(xs, ys, 0.01)
		if loss <= 0 || loss != loss {
			t.Fatalf("%s: implausible loss %v", name, loss)
		}
	}
}

func TestLogisticRegressionSize(t *testing.T) {
	net := LogisticRegression(10, 4, rng.New(5))
	if n := net.ParamCount(); n != 10*4+4 {
		t.Fatalf("logreg params = %d", n)
	}
}

func TestMLPSize(t *testing.T) {
	net := MLP(8, []int{16, 12}, 5, rng.New(6))
	want := (8*16 + 16) + (16*12 + 12) + (12*5 + 5)
	if n := net.ParamCount(); n != want {
		t.Fatalf("mlp params = %d, want %d", n, want)
	}
}

func TestMLPNoHidden(t *testing.T) {
	net := MLP(6, nil, 3, rng.New(7))
	if n := net.ParamCount(); n != 6*3+3 {
		t.Fatalf("degenerate MLP params = %d", n)
	}
}

// smallCNN builds a compact convolutional model for c x h x w inputs:
// conv(8 channels, 3x3, pad 1) + ReLU + 2x2 pool + linear classifier. It
// exercises the full conv/pool/backprop path at test-friendly cost.
func smallCNN(c, h, w, classes int, r *rng.RNG) *Network {
	conv := NewConv2D(c, h, w, 8, 3, 3, 1, r)
	relu := NewReLU(8 * h * w)
	pool := NewMaxPool2D(8, h, w, 2)
	fc := NewDense(pool.OutSize(), classes, true, r)
	return New(conv, relu, pool, fc)
}

func TestSmallCNNTrains(t *testing.T) {
	r := rng.New(8)
	net := smallCNN(1, 8, 8, 2, r)
	var xs []tensor.Vector
	var ys []int
	// Class 0: bright top half. Class 1: bright bottom half.
	for i := 0; i < 40; i++ {
		x := tensor.NewVector(64)
		y := i % 2
		for row := 0; row < 8; row++ {
			for col := 0; col < 8; col++ {
				v := 0.1 * r.NormFloat64()
				if (y == 0 && row < 4) || (y == 1 && row >= 4) {
					v += 1
				}
				x[row*8+col] = v
			}
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	for epoch := 0; epoch < 40; epoch++ {
		net.TrainBatch(xs, ys, 0.1)
	}
	if acc := net.Accuracy(xs, ys); acc < 0.9 {
		t.Fatalf("SmallCNN accuracy = %v on trivial task", acc)
	}
}

func TestGroupNormValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("groups not dividing channels should panic")
		}
	}()
	NewGroupNorm(5, 2, 2, 2)
}

func TestConvOutputShapeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive conv output should panic")
		}
	}()
	NewConv2D(1, 2, 2, 1, 5, 5, 0, rng.New(9))
}

func TestPoolValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized pool window should panic")
		}
	}()
	NewMaxPool2D(1, 2, 2, 4)
}

func TestPaperPoolShapesDivideEvenly(t *testing.T) {
	// DESIGN note: partial pooling windows never occur in the paper models.
	shapes := []struct{ h, win int }{{32, 2}, {16, 2}, {8, 2}, {28, 2}, {14, 2}}
	for _, s := range shapes {
		if s.h%s.win != 0 {
			t.Fatalf("pool input %d not divisible by window %d", s.h, s.win)
		}
	}
}

func BenchmarkTrainStepLogReg(b *testing.B) {
	r := rng.New(1)
	net := LogisticRegression(32, 10, r)
	xs := make([]tensor.Vector, 32)
	ys := make([]int, 32)
	for i := range xs {
		xs[i] = tensor.NewVector(32)
		for j := range xs[i] {
			xs[i][j] = r.NormFloat64()
		}
		ys[i] = r.Intn(10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainBatch(xs, ys, 0.1)
	}
}

func BenchmarkForwardCIFARGNLeNet(b *testing.B) {
	net := CIFARGNLeNet(rng.New(1))
	x := tensor.NewVector(net.InSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

// TestModelInitPinned: the initial parameters of the simulator's models and
// of GN-LeNet, and the generator's next draws after them, to the bit —
// odd weight counts among them, which leave a normal variate cached.
// Every pinned table starts from these weights.
func TestModelInitPinned(t *testing.T) {
	for name, tc := range map[string]struct {
		build func(*rng.RNG) *Network
		want  string
	}{
		"LogisticRegression(32, 10)": {
			func(r *rng.RNG) *Network { return LogisticRegression(32, 10, r) },
			"f2306f617a461452a153a8dc2171379533ef8aa878c5af3e64bbac6aeca997c1"},
		"MLP(32, [1024], 10)": {
			func(r *rng.RNG) *Network { return MLP(32, []int{1024}, 10, r) },
			"6ad376edc78e06fd2d974605a22375baece856d656f6d83346bbae6522acac93"},
		"CIFARGNLeNet": {CIFARGNLeNet, "4d2463f9feb1ac48e8beb2a6c6692261fda62b9578bb97a391ea6e6fa42b6f92"},
		"LogisticRegression(7, 3)": {
			func(r *rng.RNG) *Network { return LogisticRegression(7, 3, r) },
			"ecad20af31f35da5f429e893aa69fa1f61d1d879ac77070c358470ed4d421709"},
		"MLP(5, [3 7], 3)": {
			func(r *rng.RNG) *Network { return MLP(5, []int{3, 7}, 3, r) },
			"ea305ee20b0bea5d63b4183dc983b874ffd27308989d429ab456c15452842f31"},
	} {
		r := rng.New(7)
		p := tc.build(r).Params()
		h := sha256.New()
		for _, v := range append(p[:len(p):len(p)], r.NormFloat64(), r.NormFloat64(), r.Float64()) {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: parameters and next draws hash to %s, want %s", name, got, tc.want)
		}
	}
}

// TestModelAllocs: building the simulator's models allocates the layers'
// structs, the layer list, the Network and its one vector — nothing per
// buffer — and training and scoring allocate nothing after the first step
// (which allocates the gradient vector).
func TestModelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	for _, tc := range []struct {
		name  string
		build func(*rng.RNG) *Network
		most  float64
	}{
		{"LogisticRegression(32, 10)", func(r *rng.RNG) *Network { return LogisticRegression(32, 10, r) }, 4},
		{"MLP(32, [1024], 10)", func(r *rng.RNG) *Network { return MLP(32, []int{1024}, 10, r) }, 6},
	} {
		r := rng.New(1)
		n := testing.AllocsPerRun(10, func() { tc.build(r) })
		t.Logf("%s: %v allocations a build", tc.name, n)
		if n > tc.most {
			t.Errorf("%s: %v allocations a build, want at most %v", tc.name, n, tc.most)
		}
		net := tc.build(r)
		xs, ys := toyBatch(rng.New(2), 32, 10, 16)
		for _, step := range []struct {
			name string
			fn   func()
		}{
			{"TrainBatch", func() { net.TrainBatch(xs, ys, 0.05) }},
			{"Accuracy", func() { net.Accuracy(xs, ys) }},
		} {
			step.fn()
			if n := testing.AllocsPerRun(10, step.fn); n != 0 {
				t.Errorf("%s: %s allocates %v objects a call after the first", tc.name, step.name, n)
			}
		}
	}
}
