package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRing(t *testing.T) {
	g, err := Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular(2) || !g.IsConnected() || !isSymmetric(g) {
		t.Fatal("ring(5) should be 2-regular, connected, symmetric")
	}
	if !hasEdge(g, 0, 4) || !hasEdge(g, 0, 1) || hasEdge(g, 0, 2) {
		t.Fatal("ring adjacency wrong")
	}
	if _, err := Ring(2); err == nil {
		t.Fatal("ring(2) should error")
	}
}

func TestComplete(t *testing.T) {
	g, err := Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular(5) || !g.IsConnected() {
		t.Fatal("complete(6) wrong")
	}
	if _, err := Complete(1); err == nil {
		t.Fatal("complete(1) should error")
	}
}

func TestCirculantEvenDegree(t *testing.T) {
	g, err := Circulant(10, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular(6) || !g.IsConnected() || !isSymmetric(g) {
		t.Fatal("circulant(10, 1..3) should be 6-regular")
	}
}

func TestCirculantHalfOffset(t *testing.T) {
	// Offset n/2 on even n contributes one edge -> odd degree possible.
	g, err := Circulant(8, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular(3) {
		t.Fatalf("circulant(8, {1,4}) degrees: %d", g.Degree(0))
	}
}

func TestCirculantValidation(t *testing.T) {
	if _, err := Circulant(8, []int{0}); err == nil {
		t.Fatal("offset 0 should error")
	}
	if _, err := Circulant(8, []int{5}); err == nil {
		t.Fatal("offset > n/2 should error")
	}
	if _, err := Circulant(8, []int{2, 2}); err == nil {
		t.Fatal("duplicate offset should error")
	}
}

func TestRegularPaperTopologies(t *testing.T) {
	// The paper's exact settings: 256 nodes, d in {6, 8, 10}.
	for _, d := range []int{6, 8, 10} {
		g, err := Regular(256, d, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsRegular(d) {
			t.Fatalf("%d-regular graph is not regular", d)
		}
		if !g.IsConnected() {
			t.Fatalf("%d-regular graph is not connected", d)
		}
		if !isSymmetric(g) {
			t.Fatalf("%d-regular graph is not symmetric", d)
		}
	}
}

func TestRegularSmall(t *testing.T) {
	g, err := Regular(8, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular(3) || !g.IsConnected() {
		t.Fatal("Regular(8,3) invalid")
	}
}

func TestRegularValidation(t *testing.T) {
	if _, err := Regular(5, 3, 1); err == nil {
		t.Fatal("odd n*d should error")
	}
	if _, err := Regular(4, 4, 1); err == nil {
		t.Fatal("d >= n should error")
	}
	if _, err := Regular(10, 1, 1); err == nil {
		t.Fatal("d < 2 should error")
	}
}

func TestRegularDeterministic(t *testing.T) {
	a, _ := Regular(32, 4, 7)
	b, _ := Regular(32, 4, 7)
	for i := 0; i < 32; i++ {
		if len(a.Adj[i]) != len(b.Adj[i]) {
			t.Fatal("Regular not deterministic")
		}
		for k := range a.Adj[i] {
			if a.Adj[i][k] != b.Adj[i][k] {
				t.Fatal("Regular not deterministic")
			}
		}
	}
}

func TestRegularProperty(t *testing.T) {
	f := func(seed uint64, nRaw, dRaw uint8) bool {
		n := 8 + int(nRaw)%56 // 8..63
		d := 2 + int(dRaw)%5  // 2..6
		if d >= n || n*d%2 != 0 {
			return true
		}
		g, err := Regular(n, d, seed)
		if err != nil {
			return false
		}
		return g.IsRegular(d) && g.IsConnected() && isSymmetric(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMetropolisDoublyStochastic(t *testing.T) {
	for _, d := range []int{6, 8, 10} {
		g, _ := Regular(64, d, 3)
		w := Metropolis(g)
		if err := w.CheckDoublyStochastic(g, 1e-12); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if err := w.CheckSymmetric(g, 1e-12); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
	}
}

func TestMetropolisIrregularGraph(t *testing.T) {
	// A path graph: degrees 1 and 2; Metropolis must stay doubly stochastic.
	g := &Graph{N: 4, Adj: [][]int{{1}, {0, 2}, {1, 3}, {2}}}
	w := Metropolis(g)
	if err := w.CheckDoublyStochastic(g, 1e-12); err != nil {
		t.Fatal(err)
	}
	// W_01 = 1/(max(1,2)+1) = 1/3.
	if math.Abs(w.Nbr[0][0]-1.0/3) > 1e-12 {
		t.Fatalf("W_01 = %v, want 1/3", w.Nbr[0][0])
	}
}

func TestApplyPreservesConsensus(t *testing.T) {
	g, _ := Regular(16, 4, 9)
	w := Metropolis(g)
	src := make([]float64, 16)
	for i := range src {
		src[i] = 3.25
	}
	dst := make([]float64, 16)
	w.Apply(g, dst, src)
	for i, v := range dst {
		if math.Abs(v-3.25) > 1e-12 {
			t.Fatalf("consensus not fixed point at %d: %v", i, v)
		}
	}
}

func TestApplyPreservesMean(t *testing.T) {
	// Doubly stochastic => mean preserved (sum invariance).
	g, _ := Regular(16, 6, 10)
	w := Metropolis(g)
	src := make([]float64, 16)
	for i := range src {
		src[i] = float64(i * i % 7)
	}
	sum := 0.0
	for _, v := range src {
		sum += v
	}
	dst := make([]float64, 16)
	w.Apply(g, dst, src)
	sum2 := 0.0
	for _, v := range dst {
		sum2 += v
	}
	if math.Abs(sum-sum2) > 1e-9 {
		t.Fatalf("mean not preserved: %v -> %v", sum, sum2)
	}
}

func TestSpectralGapOrdering(t *testing.T) {
	// Denser regular topologies mix faster: gap(d=10) > gap(d=6) > gap(ring).
	ring, _ := Ring(64)
	g6, _ := Regular(64, 6, 1)
	g10, _ := Regular(64, 10, 1)
	gapRing := Metropolis(ring).SpectralGap(ring, 300, 1)
	gap6 := Metropolis(g6).SpectralGap(g6, 300, 1)
	gap10 := Metropolis(g10).SpectralGap(g10, 300, 1)
	if !(gap10 > gap6 && gap6 > gapRing) {
		t.Fatalf("spectral gaps out of order: ring=%v d6=%v d10=%v", gapRing, gap6, gap10)
	}
}

func TestSpectralGapComplete(t *testing.T) {
	// Complete graph with MH weights mixes in one step: lambda_2 = 0, gap = 1.
	g, _ := Complete(16)
	gap := Metropolis(g).SpectralGap(g, 100, 2)
	if math.Abs(gap-1) > 1e-6 {
		t.Fatalf("complete graph gap = %v, want 1", gap)
	}
}

func TestSpectralGapRingAnalytic(t *testing.T) {
	// For the n-cycle with MH weights (1/3 self, 1/3 each neighbor),
	// lambda_2 = 1/3 + 2/3*cos(2*pi/n).
	n := 32
	ring, _ := Ring(n)
	gap := Metropolis(ring).SpectralGap(ring, 2000, 3)
	want := 1 - (1.0/3 + 2.0/3*math.Cos(2*math.Pi/float64(n)))
	if math.Abs(gap-want) > 1e-4 {
		t.Fatalf("ring gap = %v, want %v", gap, want)
	}
}

func TestDisconnectedDetection(t *testing.T) {
	g := &Graph{N: 4, Adj: [][]int{{1}, {0}, {3}, {2}}}
	if g.IsConnected() {
		t.Fatal("two components reported connected")
	}
}
