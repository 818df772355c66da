package graph

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

func TestLiveDegree(t *testing.T) {
	g := &Graph{N: 4, Adj: [][]int{{1, 2}, {0, 2}, {0, 1, 3}, {2}}}
	live := []bool{true, false, true, true}
	wants := []int{1, 0, 2, 1} // node 1 dead: its degree 0, its edges gone
	for i, want := range wants {
		if d := g.LiveDegree(live, i); d != want {
			t.Fatalf("LiveDegree(%d) = %d, want %d", i, d, want)
		}
	}
	// nil mask = full degrees.
	for i := 0; i < g.N; i++ {
		if g.LiveDegree(nil, i) != g.Degree(i) {
			t.Fatalf("nil mask should give full degree at %d", i)
		}
	}
}

func TestMeanLiveDegree(t *testing.T) {
	g := &Graph{N: 4, Adj: [][]int{{1, 2}, {0, 2}, {0, 1, 3}, {2}}}
	live := []bool{true, false, true, true}
	want := (1.0 + 2.0 + 1.0) / 3.0
	if got := g.MeanLiveDegree(live); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanLiveDegree = %v, want %v", got, want)
	}
	if got := g.MeanLiveDegree([]bool{false, false, false, false}); got != 0 {
		t.Fatalf("all-dead MeanLiveDegree = %v, want 0", got)
	}
}

func TestLiveComponents(t *testing.T) {
	ring, err := Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		live []bool
		want int
	}{
		{nil, 1},
		{[]bool{true, true, true, true, true, true}, 1},
		// Killing two opposite nodes cuts the ring into two arcs.
		{[]bool{true, false, true, true, false, true}, 2},
		// Killing every other node leaves three isolated nodes.
		{[]bool{true, false, true, false, true, false}, 3},
		{[]bool{false, false, false, false, false, false}, 0},
	}
	for _, c := range cases {
		if got := ring.LiveComponentsScratch(c.live, make([]bool, ring.N), nil); got != c.want {
			t.Fatalf("LiveComponentsScratch(%v) = %d, want %d", c.live, got, c.want)
		}
	}
}

func TestRenormalizeLiveNilEqualsMetropolis(t *testing.T) {
	g, _ := Regular(24, 4, 17)
	mh, rn := Metropolis(g), renormalizeLive(g, nil)
	allLive := make([]bool, g.N)
	for i := range allLive {
		allLive[i] = true
	}
	rnAll := renormalizeLive(g, allLive)
	for i := 0; i < g.N; i++ {
		if mh.Self[i] != rn.Self[i] || mh.Self[i] != rnAll.Self[i] {
			t.Fatalf("self weight differs at %d", i)
		}
		for k := range mh.Nbr[i] {
			if mh.Nbr[i][k] != rn.Nbr[i][k] || mh.Nbr[i][k] != rnAll.Nbr[i][k] {
				t.Fatalf("neighbor weight differs at (%d,%d)", i, k)
			}
		}
	}
}

func TestRenormalizeLiveDeadRowsIdentity(t *testing.T) {
	g, _ := Regular(16, 4, 23)
	live := make([]bool, g.N)
	for i := range live {
		live[i] = i%3 != 0
	}
	w := renormalizeLive(g, live)
	for i := 0; i < g.N; i++ {
		if live[i] {
			continue
		}
		if w.Self[i] != 1 {
			t.Fatalf("dead node %d self weight %v, want 1", i, w.Self[i])
		}
		for k, v := range w.Nbr[i] {
			if v != 0 {
				t.Fatalf("dead node %d edge %d weight %v, want 0", i, k, v)
			}
		}
	}
}

// TestRenormalizeLiveProperty is the acceptance property of the brown-out
// topology: over 1000 random (graph, live-set) draws, the renormalized
// mixing matrix is symmetric and row-stochastic (indeed doubly stochastic:
// dead rows and columns reduce to the identity), and applying it preserves
// the live component's total mass — the consensus invariant aggregation
// relies on every drop round.
func TestRenormalizeLiveProperty(t *testing.T) {
	const draws = 1000
	for draw := 0; draw < draws; draw++ {
		r := rng.Derive(0x11fe, uint64(draw))
		n := 8 + r.Intn(40) // 8..47 nodes
		d := 2 + r.Intn(5)  // degree 2..6
		if d >= n || n*d%2 != 0 {
			d = 2
		}
		g, err := Regular(n, d, r.Uint64())
		if err != nil {
			t.Fatalf("draw %d: %v", draw, err)
		}
		density := 0.1 + 0.8*r.Float64()
		live := make([]bool, n)
		for i := range live {
			live[i] = r.Float64() < density
		}
		w := renormalizeLive(g, live)
		if err := w.CheckSymmetric(g, 1e-12); err != nil {
			t.Fatalf("draw %d (n=%d d=%d): %v", draw, n, d, err)
		}
		// Row AND column stochasticity on the full index set.
		if err := w.CheckDoublyStochastic(g, 1e-12); err != nil {
			t.Fatalf("draw %d (n=%d d=%d): %v", draw, n, d, err)
		}
		// Mass on the live component is invariant under one mixing step.
		src := make([]float64, n)
		for i := range src {
			src[i] = r.NormFloat64()
		}
		dst := make([]float64, n)
		w.Apply(g, dst, src)
		var liveBefore, liveAfter float64
		for i := range src {
			if live[i] {
				liveBefore += src[i]
				liveAfter += dst[i]
			} else if dst[i] != src[i] {
				t.Fatalf("draw %d: dead node %d value changed %v -> %v", draw, i, src[i], dst[i])
			}
		}
		if math.Abs(liveBefore-liveAfter) > 1e-9 {
			t.Fatalf("draw %d: live mass %v -> %v", draw, liveBefore, liveAfter)
		}
	}
}

// TestLiveScansReuseCallerState pins the two per-round scans against fresh
// state: one scratch pair and one Weights carried across random masks give
// the count over fresh scratch and the matrix refilled into fresh Weights
// exactly, whatever the previous mask left behind, and allocate nothing.
func TestLiveScansReuseCallerState(t *testing.T) {
	g, err := Regular(24, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	seen, queue, w := make([]bool, g.N), make([]int, 0, g.N), NewWeights(g)
	live := make([]bool, g.N)
	r := rng.New(0x5c4a)
	for draw := 0; draw < 200; draw++ {
		for i := range live {
			live[i] = r.Float64() < 0.6
		}
		if got, want := g.LiveComponentsScratch(live, seen, queue), g.LiveComponentsScratch(live, make([]bool, g.N), nil); got != want {
			t.Fatalf("draw %d: %d components over reused scratch, want %d", draw, got, want)
		}
		RenormalizeLiveTo(w, g, live)
		fresh := renormalizeLive(g, live)
		for i := range fresh.Nbr {
			if w.Self[i] != fresh.Self[i] || !slices.Equal(w.Nbr[i], fresh.Nbr[i]) {
				t.Fatalf("draw %d: refilled row %d is %v %v, want %v %v", draw, i, w.Self[i], w.Nbr[i], fresh.Self[i], fresh.Nbr[i])
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		g.LiveComponentsScratch(live, seen, queue)
		g.LiveComponentsScratch(nil, seen, queue)
		RenormalizeLiveTo(w, g, live)
	}); allocs != 0 {
		t.Fatalf("the per-round scans allocate %v times, want 0", allocs)
	}
}
