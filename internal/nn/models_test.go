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

func BenchmarkTrainStepLogReg(b *testing.B) {
	r := rng.New(1)
	benchTrainStep(b, LogisticRegression(32, 10, r), r, 32)
}

// BenchmarkTrainStepMLP is a train step at the shape of the sync_wide_mlp
// bench workload: 32 -> 1024 -> 10, four samples a batch.
func BenchmarkTrainStepMLP(b *testing.B) {
	r := rng.New(1)
	benchTrainStep(b, MLP(32, []int{1024}, 10, r), r, 4)
}

// benchTrainStep times TrainBatch on a batch of random 32-input,
// 10-class samples.
func benchTrainStep(b *testing.B, net *Network, r *rng.RNG, batch int) {
	xs := make([]tensor.Vector, batch)
	ys := make([]int, batch)
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

// TestModelInitPinned: the initial parameters of the simulator's models,
// and the generator's next draws after them, to the bit —
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

// TestModelAllocs: building the simulator's models allocates exactly the
// layer list, the Network and its one vector — nothing per layer or per
// buffer — and training and scoring allocate nothing after the first step
// (which allocates the gradient vector).
func TestModelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	for _, tc := range []struct {
		name  string
		build func(*rng.RNG) *Network
	}{
		{"LogisticRegression(32, 10)", func(r *rng.RNG) *Network { return LogisticRegression(32, 10, r) }},
		{"MLP(32, [1024], 10)", func(r *rng.RNG) *Network { return MLP(32, []int{1024}, 10, r) }},
	} {
		r := rng.New(1)
		n := testing.AllocsPerRun(10, func() { tc.build(r) })
		t.Logf("%s: %v allocations a build", tc.name, n)
		if n != 3 {
			t.Errorf("%s: %v allocations a build, want 3", tc.name, n)
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
