package nn

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// stepOnce trains net on one fixed sample, so that every parameter block
// (GroupNorm's affines included) leaves its initial value.
func stepOnce(net *Network) {
	r := rng.New(99)
	x := tensor.NewVector(net.InSize())
	for i := range x {
		x[i] = r.NormFloat64()
	}
	net.TrainBatch([]tensor.Vector{x}, []int{1}, 0.05)
}

func savedBytes(t *testing.T, net *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := net.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// blocks lists the parameter slices of every layer in the order the
// checkpoint format has always stored them: layer by layer, weights first.
func blocks(net *Network) [][]float64 {
	var out [][]float64
	for _, l := range net.layers {
		switch l := l.(type) {
		case *Dense:
			out = append(out, l.W.Data)
			if l.B != nil {
				out = append(out, l.B)
			}
		case *Conv2D:
			out = append(out, l.K, l.B)
		case *GroupNorm:
			out = append(out, l.gamma, l.beta)
		}
	}
	return out
}

// TestNetworkFlatViews pins the flat layout: every layer's parameters are
// windows of Network.Params in checkpoint order, a SetParams is visible
// in each of them, and the bytes SaveParams writes — at initialisation and
// after a training step — are the ones the per-layer implementation wrote
// (digests recorded at commit 968df6c, before the layout changed).
func TestNetworkFlatViews(t *testing.T) {
	for _, c := range []struct {
		name          string
		net           *Network
		params        int
		init, stepped string
	}{
		{"mlp", MLP(32, []int{16}, 10, rng.New(7)), 698,
			"32e895b6dee958bcef321f2aaa5341372f174d746d439ec7cedf9c8996bfc278",
			"59364ac564a077bb5d509e1be82425dd29cff9e494b1f7f8d784e60355584fc1"},
		{"gn-lenet", CIFARGNLeNet(rng.New(7)), 89834,
			"4f065fce96a03792bcc947e1dcb546d581cfc3b16758ede329e90e94d6640a94",
			"68db92fb389db5f92ac8796721818a6c7ac60e5980c540008f994ddc87006cd0"},
		{"leaf-cnn", FEMNISTCNN(rng.New(7)), 1690046,
			"837e40eda4466bdcdf61dca3f8b8cebafe019b640e1b818779cff6a65fabf969",
			"80b3e0921413d71d222478ccd4c50465b8d5cd87fbd17b8843f109f139982932"},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := c.net
			if net.ParamCount() != c.params || len(net.Params()) != c.params {
				t.Fatalf("ParamCount %d, flat view %d, want %d", net.ParamCount(), len(net.Params()), c.params)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(savedBytes(t, net))); got != c.init {
				t.Errorf("initial parameter file differs from the per-layer layout's: %s", got)
			}
			stepOnce(net)
			if got := fmt.Sprintf("%x", sha256.Sum256(savedBytes(t, net))); got != c.stepped {
				t.Errorf("parameter file after one step differs from the per-layer layout's: %s", got)
			}

			ramp := tensor.NewVector(c.params)
			for i := range ramp {
				ramp[i] = float64(i)
			}
			net.SetParams(ramp)
			off := 0
			for k, b := range blocks(net) {
				if &b[0] != &net.Params()[off] {
					t.Fatalf("block %d is not the window of Params at %d", k, off)
				}
				if b[0] != float64(off) || b[len(b)-1] != float64(off+len(b)-1) {
					t.Fatalf("block %d does not show SetParams: [%v..%v] at offset %d", k, b[0], b[len(b)-1], off)
				}
				off += len(b)
			}
			if off != c.params {
				t.Fatalf("blocks cover %d of %d parameters", off, c.params)
			}
		})
	}
}

// A parameter file written by the per-layer implementation (commit
// 968df6c: this network after stepOnce) loads into the flat layout and is
// written back, and reproduced by training, to the same bytes.
func TestFlatLayoutLoadsOldParameterFile(t *testing.T) {
	old, err := os.ReadFile("testdata/mini_gnlenet_stepped.skpt")
	if err != nil {
		t.Fatal(err)
	}
	build := func(seed uint64) *Network {
		r := rng.New(seed)
		return New(
			NewConv2D(2, 8, 8, 4, 5, 5, 2, r), NewGroupNorm(4, 8, 8, 2), NewReLU(4*8*8), NewMaxPool2D(4, 8, 8, 2),
			NewConv2D(4, 4, 4, 4, 3, 3, 1, r), NewGroupNorm(4, 4, 4, 2), NewReLU(4*4*4), NewMaxPool2D(4, 4, 4, 2),
			NewDense(4*2*2, 4, true, r))
	}
	loaded := build(1)
	if err := loaded.LoadParams(bytes.NewReader(old)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(savedBytes(t, loaded), old) {
		t.Fatal("old parameter file does not round-trip through the flat layout")
	}
	trained := build(7)
	stepOnce(trained)
	if !bytes.Equal(savedBytes(t, trained), old) {
		t.Fatal("training in the flat layout no longer reproduces the old parameter file")
	}
}

// The steady-state model traffic allocates nothing: a train step with
// either update rule, and the two whole-model copies.
func TestModelTrafficAllocatesNothing(t *testing.T) {
	r := rng.New(3)
	xs, ys := toyBatch(r, 8, 3, 4)
	net := MLP(8, []int{16}, 3, rng.New(4))
	opt := NewMomentumSGD(0.05, 0.9, true)
	buf := tensor.NewVector(net.ParamCount())
	for name, fn := range map[string]func(){
		"TrainBatch":     func() { net.TrainBatch(xs, ys, 0.05) },
		"TrainBatchWith": func() { net.TrainBatchWith(opt, xs, ys) },
		"CopyParamsTo":   func() { net.CopyParamsTo(buf) },
		"SetParams":      func() { net.SetParams(buf) },
	} {
		fn() // warm-up: the optimizer sizes its velocity on first use
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s allocates %v objects per call", name, allocs)
		}
	}
}

func sameBits(a, b tensor.Vector) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestMixParamsSwapsBuffers pins what MixParams does to the two flat
// vectors: the W-weighted sum lands in the gradient vector, which becomes
// the model — in the network and in every layer's windows — with no copy
// and no allocation, while every operand, the old model included, stays
// as a neighbor would still be reading it. Checked after one exchange and
// after two, when the vectors are back where New put them.
func TestMixParamsSwapsBuffers(t *testing.T) {
	for name, build := range map[string]func(seed uint64) *Network{
		"logreg":   func(s uint64) *Network { return LogisticRegression(32, 10, rng.New(s)) },
		"mlp":      func(s uint64) *Network { return MLP(32, []int{64}, 10, rng.New(s)) },
		"smallcnn": func(s uint64) *Network { return SmallCNN(2, 4, 4, 10, rng.New(s)) },
		"conv-gn": func(s uint64) *Network {
			r := rng.New(s)
			return New(NewConv2D(2, 4, 4, 4, 3, 3, 1, r), NewGroupNorm(4, 4, 4, 2), NewReLU(4*4*4), NewDense(4*4*4, 10, true, r))
		},
	} {
		t.Run(name, func(t *testing.T) {
			net, fresh := build(7), build(1)
			stepOnce(net) // every block off its initial value, gradients non-zero
			xs, ys := toyBatch(rng.New(5), 32, 10, 6)
			weights := []float64{0.5, 0.3, 0.2}
			vecs := []tensor.Vector{nil, build(8).Params(), build(9).Params()}
			for swaps := 1; swaps <= 2; swaps++ {
				old := net.Params()
				before := old.Clone()
				want := tensor.NewVector(len(old))
				tensor.ScaleTo(want, weights[0], old)
				tensor.AXPY(want, weights[1], vecs[1])
				tensor.AXPY(want, weights[2], vecs[2])
				vecs[0] = old
				net.MixParams(weights, vecs)

				got := net.Params()
				if &got[0] == &old[0] || !sameBits(old, before) {
					t.Fatalf("swap %d: the old model vector was written, or is still the model", swaps)
				}
				if !sameBits(got, want) {
					t.Fatalf("swap %d: Params is not the ScaleTo+AXPY sum", swaps)
				}
				off := 0
				for k, b := range blocks(net) {
					if &b[0] != &got[off] {
						t.Fatalf("swap %d: block %d is not the window of Params at %d", swaps, k, off)
					}
					off += len(b)
				}
				if off != len(got) {
					t.Fatalf("swap %d: blocks cover %d of %d parameters", swaps, off, len(got))
				}
				fresh.SetParams(want)
				if !sameBits(net.Forward(xs[0]), fresh.Forward(xs[0])) || net.Accuracy(xs, ys) != fresh.Accuracy(xs, ys) {
					t.Fatalf("swap %d: Forward does not run on the mixed model", swaps)
				}
				// fresh's gradient vector has never held anything but gradients;
				// net's holds the previous model until the train step zeroes it.
				net.TrainBatch(xs, ys, 0.05)
				fresh.TrainBatch(xs, ys, 0.05)
				if !sameBits(net.Params(), fresh.Params()) {
					t.Fatalf("swap %d: a train step after the mix differs from one on a fresh network", swaps)
				}
			}

			if allocs := testing.AllocsPerRun(20, func() {
				vecs[0] = net.Params()
				net.MixParams(weights, vecs)
			}); allocs != 0 {
				t.Errorf("MixParams allocates %v objects per call", allocs)
			}

			model, params, grads := net.Params(), net.Params().Clone(), net.grads.Clone()
			vecs[0], vecs[2] = model, vecs[2][1:]
			func() {
				defer func() {
					if recover() == nil {
						t.Error("MixParams accepted an operand of the wrong length")
					}
				}()
				net.MixParams(weights, vecs)
			}()
			if &net.Params()[0] != &model[0] || !sameBits(model, params) || !sameBits(net.grads, grads) {
				t.Error("a rejected MixParams wrote a vector or exchanged them")
			}
		})
	}
}
