package nn

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
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
