package nn

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"fmt"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// stepOnce trains net on one fixed sample, so that every parameter block
// leaves its initial value.
func stepOnce(net *Network) {
	r := rng.New(99)
	x := tensor.NewVector(net.layers[0].in)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	net.TrainBatch([]tensor.Vector{x}, []int{1}, 0.05)
}

func savedBytes(t *testing.T, net *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeVector(&buf, net.Params()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// blocks lists the parameter slices of every layer in the order the
// checkpoint format has always stored them: layer by layer, weights first.
func blocks(net *Network) [][]float64 {
	var out [][]float64
	for _, l := range net.layers {
		out = append(out, l.W.Data)
		if l.bias {
			out = append(out, l.B)
		}
	}
	return out
}

// TestNetworkFlatViews pins the flat layout: every layer's parameters are
// windows of Network.Params in checkpoint order, a vector passed to Use
// shows in each of them, and the bytes writeVector writes — at initialisation and
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
			net.Use(ramp)
			off := 0
			for k, b := range blocks(net) {
				if &b[0] != &net.Params()[off] {
					t.Fatalf("block %d is not the window of Params at %d", k, off)
				}
				if b[0] != float64(off) || b[len(b)-1] != float64(off+len(b)-1) {
					t.Fatalf("block %d does not show the vector in use: [%v..%v] at offset %d", k, b[0], b[len(b)-1], off)
				}
				off += len(b)
			}
			if off != c.params {
				t.Fatalf("blocks cover %d of %d parameters", off, c.params)
			}
		})
	}
}

func toyBatch(r *rng.RNG, dim, classes, n int) ([]tensor.Vector, []int) {
	xs := make([]tensor.Vector, n)
	ys := make([]int, n)
	for i := range xs {
		xs[i] = tensor.NewVector(dim)
		for j := range xs[i] {
			xs[i][j] = r.NormFloat64()
		}
		if xs[i][0] > 0 {
			ys[i] = 1
		}
	}
	return xs, ys
}

// The steady-state model traffic allocates nothing: a train step and the
// two whole-model copies.
func TestModelTrafficAllocatesNothing(t *testing.T) {
	r := rng.New(3)
	xs, ys := toyBatch(r, 8, 3, 4)
	net := MLP(8, []int{16}, 3, rng.New(4))
	buf := tensor.NewVector(net.ParamCount())
	for name, fn := range map[string]func(){
		"TrainBatch":   func() { net.TrainBatch(xs, ys, 0.05) },
		"CopyParamsTo": func() { net.CopyParamsTo(buf) },
		"Use":          func() { net.Use(buf) },
	} {
		fn() // warm-up: the first train step allocates the gradient vector
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s allocates %v objects per call", name, allocs)
		}
	}
}

func sameBits(a, b tensor.Vector) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// testNets are the architectures the mix and Use tests run on: a layer with
// and without one below it, with and without a bias and a ReLU, and one
// with neither directly under another, whose input gradient it then
// receives unmasked.
var testNets = map[string]func(seed uint64) *Network{
	"logreg": func(s uint64) *Network { return LogisticRegression(32, 10, rng.New(s)) },
	"mlp":    func(s uint64) *Network { return MLP(32, []int{64}, 10, rng.New(s)) },
	"dense-nobias": func(s uint64) *Network {
		r := rng.New(s)
		return newNetwork(r, dense{in: 32, out: 12}, dense{in: 12, out: 16, bias: true, relu: true}, dense{in: 16, out: 10})
	},
}

// mixAll is Mix over the whole parameter range with scratch of its own.
func mixAll(rows []MixRow) {
	p := len(rows[0].X)
	Mix(rows, 0, p, tensor.NewVector(len(rows)*MixBlockLen(p)), make([]tensor.Vector, 8))
}

// TestMixInPlace pins what Mix does to the one model vector: the W-weighted
// sum, as ScaleTo then one AXPY per operand gives it, lands in Params itself
// — the same slice before and after, every layer's block still its window —
// with no allocation, while operands that are not being mixed stay as they
// were. Two networks that are each other's operands both get the sum of the
// models from before the mix, whichever sub-range a call covers.
func TestMixInPlace(t *testing.T) {
	for name, build := range testNets {
		t.Run(name, func(t *testing.T) {
			net, fresh := build(7), build(1)
			stepOnce(net) // every block off its initial value
			xs, ys := toyBatch(rng.New(5), 32, 10, 6)
			weights := []float64{0.5, 0.3, 0.2}
			model := net.Params()
			others := []tensor.Vector{build(8).Params(), build(9).Params()}
			rows := []MixRow{{model, weights, []tensor.Vector{model, others[0], others[1]}}}
			kept := []tensor.Vector{others[0].Clone(), others[1].Clone()}
			for mixes := 1; mixes <= 2; mixes++ {
				want := tensor.NewVector(len(model))
				tensor.ScaleTo(want, weights[0], model)
				tensor.AXPY(want, weights[1], others[0])
				tensor.AXPY(want, weights[2], others[1])
				mixAll(rows)

				got := net.Params()
				if &got[0] != &model[0] || len(got) != len(model) {
					t.Fatalf("mix %d: Params names another slice", mixes)
				}
				if !sameBits(got, want) {
					t.Fatalf("mix %d: Params is not the ScaleTo+AXPY sum", mixes)
				}
				if !sameBits(others[0], kept[0]) || !sameBits(others[1], kept[1]) {
					t.Fatalf("mix %d: an operand that is no network's model was written", mixes)
				}
				off := 0
				for k, b := range blocks(net) {
					if &b[0] != &got[off] {
						t.Fatalf("mix %d: block %d is not the window of Params at %d", mixes, k, off)
					}
					off += len(b)
				}
				if off != len(got) {
					t.Fatalf("mix %d: blocks cover %d of %d parameters", mixes, off, len(got))
				}
				fresh.Use(want)
				if !sameBits(net.Forward(xs[0]), fresh.Forward(xs[0])) || net.Accuracy(xs, ys) != fresh.Accuracy(xs, ys) {
					t.Fatalf("mix %d: Forward does not run on the mixed model", mixes)
				}
				net.TrainBatch(xs, ys, 0.05)
				fresh.TrainBatch(xs, ys, 0.05)
				if !sameBits(net.Params(), fresh.Params()) {
					t.Fatalf("mix %d: a train step after the mix differs from one on a fresh network", mixes)
				}
			}

			sums, ops := tensor.NewVector(MixBlockLen(len(model))), make([]tensor.Vector, 3)
			if allocs := testing.AllocsPerRun(20, func() { Mix(rows, 0, len(model), sums, ops) }); allocs != 0 {
				t.Errorf("Mix allocates %v objects per call", allocs)
			}

			before := model.Clone()
			rows[0].V[2] = others[1][1:]
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Mix accepted an operand of the wrong length")
					}
				}()
				mixAll(rows)
			}()
			if !sameBits(model, before) {
				t.Error("a rejected Mix wrote the model")
			}

			// Each the other's operand, a third network holding its model
			// (no operands), over the whole range and over two ragged halves.
			for _, cuts := range [][]int{{0, len(model)}, {0, len(model) / 3, len(model)}} {
				a, b, c := build(11), build(12), build(13)
				pa, pb, pc := a.Params().Clone(), b.Params().Clone(), c.Params().Clone()
				three := []MixRow{
					{a.Params(), []float64{0.6, 0.4}, []tensor.Vector{a.Params(), b.Params()}},
					{b.Params(), []float64{0.7, 0.3}, []tensor.Vector{b.Params(), a.Params()}},
					{X: c.Params()},
				}
				for k := 1; k < len(cuts); k++ {
					Mix(three, cuts[k-1], cuts[k], tensor.NewVector(3*MixBlock), make([]tensor.Vector, 2))
				}
				wantA, wantB := tensor.NewVector(len(pa)), tensor.NewVector(len(pa))
				tensor.WeightedSumTo(wantA, three[0].W, []tensor.Vector{pa, pb})
				tensor.WeightedSumTo(wantB, three[1].W, []tensor.Vector{pb, pa})
				if !sameBits(a.Params(), wantA) || !sameBits(b.Params(), wantB) || !sameBits(c.Params(), pc) {
					t.Errorf("cuts %v: two networks mixing each other's models did not both read the models from before the mix", cuts)
				}
			}
		})
	}
}

// trainSteps runs three train steps and returns the loss each started from,
// which the gradient accumulation that computes it reports.
func trainSteps(net *Network, xs []tensor.Vector, ys []int) (losses [3]float64) {
	for k := range losses {
		losses[k] = net.accumulate(xs, ys, true)
		net.TrainBatch(xs, ys, 0.05)
	}
	return losses
}

// TestUseMatchesOwned: a build allocates no gradient vector; one network that
// Uses two models in turn, windows of one vector, trains each to the bits
// two networks that own theirs reach, into one gradient vector, its own
// former parameters; every parameter block is then a window of the model
// in use; and Use allocates nothing and refuses a vector of another
// length.
func TestUseMatchesOwned(t *testing.T) {
	for name, build := range testNets {
		t.Run(name, func(t *testing.T) {
			xs, ys := toyBatch(rng.New(5), 32, 10, 6)
			ownA, ownB, worker := build(7), build(8), build(1)
			if ownA.grads != nil || worker.grads != nil {
				t.Fatal("a build allocated a gradient vector")
			}
			p := ownA.ParamCount()
			slab := tensor.NewVector(2 * p)
			a, b := slab[:p:p], slab[p:]
			copy(a, ownA.Params())
			copy(b, ownB.Params())

			grads := worker.Params()
			for turn := 0; turn < 3; turn++ {
				worker.Use(a)
				la, oa := trainSteps(worker, xs, ys), trainSteps(ownA, xs, ys)
				worker.Use(b)
				lb, ob := trainSteps(worker, xs, ys), trainSteps(ownB, xs, ys)
				if la != oa || lb != ob || !sameBits(a, ownA.Params()) || !sameBits(b, ownB.Params()) {
					t.Fatalf("turn %d: one network training two models in turn differs from two owning theirs", turn)
				}
				if len(worker.grads) != p || &worker.grads[0] != &grads[0] {
					t.Fatalf("turn %d: the gradient vector is not the network's own former parameters", turn)
				}
			}
			if got := worker.Params(); &got[0] != &b[0] || len(got) != p {
				t.Fatal("Params is not the model in use")
			}
			off := 0
			for k, blk := range blocks(worker) {
				if &blk[0] != &b[off] || cap(blk) != len(blk) {
					t.Fatalf("block %d is not a window of the model in use at %d", k, off)
				}
				off += len(blk)
			}
			if allocs := testing.AllocsPerRun(20, func() { worker.Use(a) }); allocs != 0 {
				t.Errorf("Use allocates %v objects per call", allocs)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Use accepted a vector of the wrong length")
					}
				}()
				worker.Use(slab[1 : p+2])
			}()
		})
	}
}

// TestInitMatchesConstructor: Init draws into any vector, whatever it held,
// the bits the constructor draws from a stream in the same state, and
// leaves the stream where the constructor does, for the simulator's
// models; it allocates nothing.
func TestInitMatchesConstructor(t *testing.T) {
	for name, build := range map[string]func(r *rng.RNG) *Network{
		"logreg": func(r *rng.RNG) *Network { return LogisticRegression(32, 10, r) },
		"mlp":    func(r *rng.RNG) *Network { return MLP(32, []int{64, 16}, 10, r) },
	} {
		t.Run(name, func(t *testing.T) {
			built, rb := build(rng.New(21)), rng.New(21)
			want := built.Params()
			built = build(rb) // rb now stands where the constructor leaves it
			worker := build(rng.New(3))
			x := tensor.NewVector(len(want))
			for i := range x {
				x[i] = math.NaN()
			}
			ri := rng.New(21)
			worker.Init(x, ri)
			if !sameBits(x, want) || !sameBits(built.Params(), want) {
				t.Fatal("Init drew other bits than the constructor")
			}
			if ri.Uint64() != rb.Uint64() {
				t.Fatal("Init left the stream elsewhere than the constructor")
			}
			if &worker.Params()[0] != &x[0] {
				t.Fatal("Init did not use the vector it drew into")
			}
			if allocs := testing.AllocsPerRun(2, func() { worker.Init(x, ri) }); allocs != 0 {
				t.Errorf("Init allocates %v objects per call", allocs)
			}
		})
	}
}

// TestParallelTrainingOnSlabWindows: eight models that are adjacent windows
// of one vector, trained concurrently by three networks shared through a
// free list, end with the bits eight networks that own their models reach
// one after another, at GOMAXPROCS 1 and 8; under -race, no two trainings
// touch the same memory.
func TestParallelTrainingOnSlabWindows(t *testing.T) {
	const nodes, workers = 8, 3
	build := func(r *rng.RNG) *Network { return MLP(32, []int{16}, 10, r) }
	xs, ys := toyBatch(rng.New(5), 32, 10, 6)
	want := make([]tensor.Vector, nodes)
	for i := range want {
		net := build(rng.New(uint64(100 + i)))
		trainSteps(net, xs, ys)
		want[i] = net.Params()
	}
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		free := make(chan *Network, workers)
		for range workers {
			free <- build(rng.New(1))
		}
		p := len(want[0])
		slab := tensor.NewVector(nodes * p)
		models := make([]tensor.Vector, nodes)
		for i := range models {
			models[i] = slab[i*p : (i+1)*p : (i+1)*p]
			net := <-free
			net.Init(models[i], rng.New(uint64(100+i)))
			free <- net
		}
		var wg sync.WaitGroup
		for i := range models {
			wg.Add(1)
			go func() {
				defer wg.Done()
				net := <-free
				net.Use(models[i])
				trainSteps(net, xs, ys)
				free <- net
			}()
		}
		wg.Wait()
		runtime.GOMAXPROCS(old)
		for i := range models {
			if !sameBits(models[i], want[i]) {
				t.Errorf("GOMAXPROCS %d: node %d differs from a network that owns its model", procs, i)
			}
		}
	}
}

// The parameter vector and the softmax scratch are one allocation, the
// scratch right after the parameters (newNetwork); Params' capacity ends where
// the scratch begins, so an append to a model vector copies it instead of
// writing the scratch.
func TestParamsCapacityEndsAtScratch(t *testing.T) {
	for name, build := range testNets {
		net := build(5)
		p := net.Params()
		if cap(p) != len(p) {
			t.Fatalf("%s: Params has len %d, cap %d", name, len(p), cap(p))
		}
		if grown := append(p, 7); &grown[0] == &p[0] {
			t.Fatalf("%s: an append to Params wrote past it, in place", name)
		}
	}
}

// layerWindows lists every float slice net's layers hold, by layer and
// field, with the softmax scratch: the reflection finds a buffer a layer
// adds without the test naming it.
func layerWindows(net *Network) map[string]tensor.Vector {
	out := map[string]tensor.Vector{"probs": net.probs}
	for i := range net.layers {
		v := reflect.ValueOf(&net.layers[i]).Elem()
		for j := range v.NumField() {
			f := v.Field(j)
			name := fmt.Sprintf("layer %d %s.%s", i, v.Type().Name(), v.Type().Field(j).Name)
			switch field := reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Interface().(type) {
			case *tensor.Vector:
				out[name] = *field
			case *tensor.Matrix:
				out[name] = field.Data
			}
		}
	}
	return out
}

// TestWorkspacesDisjoint extends TestParamsCapacityEndsAtScratch to every
// window: right after a build, each layer's parameters and buffers and the
// softmax scratch are disjoint windows of the network's one vector that
// together tile it, and each window's capacity ends with it — so no write
// or append through one reaches another, and networks that train in
// parallel share nothing.
func TestWorkspacesDisjoint(t *testing.T) {
	nets := map[string]func(seed uint64) *Network{
		"mlp2": func(s uint64) *Network { return MLP(6, []int{5, 4}, 3, rng.New(s)) },
	}
	maps.Copy(nets, testNets)
	for name, build := range nets {
		net := build(5)
		total := net.ParamCount() + len(net.probs) - net.layers[0].in
		for _, l := range net.layers {
			total += l.out + l.in
		}
		base, covered := uintptr(unsafe.Pointer(&net.params[0])), 0
		type span struct {
			name   string
			lo, hi uintptr
		}
		var spans []span
		for field, w := range layerWindows(net) {
			if len(w) == 0 {
				continue
			}
			if cap(w) != len(w) {
				t.Errorf("%s: %s has len %d, cap %d", name, field, len(w), cap(w))
			}
			lo := uintptr(unsafe.Pointer(&w[0]))
			hi := lo + uintptr(len(w))*8
			if lo < base || hi > base+uintptr(total)*8 {
				t.Errorf("%s: %s is not a window of the network's vector", name, field)
			}
			spans = append(spans, span{field, lo, hi})
			covered += len(w)
		}
		slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
		for i := 1; i < len(spans); i++ {
			if spans[i].lo < spans[i-1].hi {
				t.Errorf("%s: %s overlaps %s", name, spans[i-1].name, spans[i].name)
			}
		}
		if covered != total {
			t.Errorf("%s: the windows hold %d floats, the network's vector %d", name, covered, total)
		}
	}
}
