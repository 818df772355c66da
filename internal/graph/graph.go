package graph

import (
	"fmt"
	"hash/fnv"

	"repro/internal/rng"
)

// Graph is an undirected graph as adjacency lists. Neighbor lists are
// sorted, contain no duplicates, and never include the node itself.
type Graph struct {
	N   int
	Adj [][]int
}

// Degree returns the degree of node i.
func (g *Graph) Degree(i int) int { return len(g.Adj[i]) }

// Fingerprint hashes the topology — node count plus full adjacency — into
// a stable 64-bit digest (FNV-1a). Runs on different graphs never share a
// fingerprint, so it anchors the run manifests' config hashes.
func (g *Graph) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(g.N))
	for i, adj := range g.Adj {
		put(uint64(i)<<32 | uint64(len(adj)))
		for _, j := range adj {
			put(uint64(j))
		}
	}
	return h.Sum64()
}

// IsRegular reports whether every node has degree d.
func (g *Graph) IsRegular(d int) bool {
	for i := 0; i < g.N; i++ {
		if g.Degree(i) != d {
			return false
		}
	}
	return true
}

// IsConnected reports whether the graph is connected (BFS from node 0).
// The empty graph and the single-node graph are connected.
func (g *Graph) IsConnected() bool {
	if g.N <= 1 {
		return true
	}
	seen := make([]bool, g.N)
	queue := []int{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == g.N
}

// Ring returns the cycle graph on n nodes (2-regular for n >= 3).
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: ring needs >= 3 nodes, got %d", n)
	}
	return Circulant(n, []int{1})
}

// Complete returns the fully connected graph on n nodes.
func Complete(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: complete graph needs >= 2 nodes, got %d", n)
	}
	g := &Graph{N: n, Adj: make([][]int, n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.Adj[i] = append(g.Adj[i], j)
			}
		}
	}
	return g, nil
}

// Circulant returns the circulant graph where node i connects to
// i ± off (mod n) for every offset off. Offsets must lie in [1, n/2].
// An offset of exactly n/2 (n even) contributes a single edge, so degree
// is 2*len(offsets) or 2*len(offsets)-1 in that case.
func Circulant(n int, offsets []int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: circulant needs >= 3 nodes, got %d", n)
	}
	g := &Graph{N: n, Adj: make([][]int, n)}
	seen := map[int]bool{}
	for _, off := range offsets {
		if off < 1 || off > n/2 {
			return nil, fmt.Errorf("graph: circulant offset %d out of [1,%d]", off, n/2)
		}
		if seen[off] {
			return nil, fmt.Errorf("graph: duplicate circulant offset %d", off)
		}
		seen[off] = true
	}
	for i := 0; i < n; i++ {
		for _, off := range offsets {
			j := (i + off) % n
			k := (i - off + n) % n
			g.Adj[i] = append(g.Adj[i], j)
			if k != j {
				g.Adj[i] = append(g.Adj[i], k)
			}
		}
	}
	sortAdj(g)
	return g, nil
}

// CheckRegular reports why Regular cannot build a d-regular graph on n
// nodes, or nil when it can: it needs 2 ≤ d < n and n·d even.
func CheckRegular(n, d int) error {
	if d < 2 || d >= n {
		return fmt.Errorf("graph: degree %d invalid for %d nodes", d, n)
	}
	if n%2 != 0 && d%2 != 0 {
		return fmt.Errorf("graph: n*d must be even (n=%d, d=%d)", n, d)
	}
	return nil
}

// Regular returns a connected d-regular graph on n nodes. It first tries
// random regular graphs via stub matching (the standard pairing model) and
// falls back to a circulant construction if sampling fails repeatedly.
// CheckRegular(n, d) must hold.
func Regular(n, d int, seed uint64) (*Graph, error) {
	if err := CheckRegular(n, d); err != nil {
		return nil, err
	}
	r := rng.Derive(seed, 0x9a4f)
	for attempt := 0; attempt < 100; attempt++ {
		g, ok := tryPairing(n, d, r)
		if ok && g.IsConnected() {
			return g, nil
		}
	}
	// Deterministic fallback: circulant with offsets 1..d/2 (+ n/2 if odd d).
	offsets := make([]int, 0, d/2+1)
	for k := 1; k <= d/2; k++ {
		offsets = append(offsets, k)
	}
	if d%2 == 1 {
		offsets = append(offsets, n/2)
	}
	g, err := Circulant(n, offsets)
	if err != nil {
		return nil, err
	}
	if !g.IsRegular(d) || !g.IsConnected() {
		return nil, fmt.Errorf("graph: could not build %d-regular graph on %d nodes", d, n)
	}
	return g, nil
}

// tryPairing runs the pairing/configuration model with edge-swap repair:
// d stubs per node are randomly matched, then self-loops and multi-edges
// are removed by double-edge swaps. Plain rejection sampling is hopeless
// for d >= 6 (the probability that a random matching is simple decays like
// exp(-(d*d-1)/4)), whereas repair converges in O(n*d) swaps and keeps the
// distribution close to uniform over simple d-regular graphs.
func tryPairing(n, d int, r *rng.RNG) (*Graph, bool) {
	m := n * d / 2
	stubs := make([]int, 0, n*d)
	for i := 0; i < n; i++ {
		for k := 0; k < d; k++ {
			stubs = append(stubs, i)
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	ea := make([]int, m)
	eb := make([]int, m)
	count := map[[2]int]int{}
	norm := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	for i := 0; i < m; i++ {
		ea[i], eb[i] = stubs[2*i], stubs[2*i+1]
		count[norm(ea[i], eb[i])]++
	}
	bad := func(i int) bool { return ea[i] == eb[i] || count[norm(ea[i], eb[i])] > 1 }

	queue := make([]int, 0, m)
	inQueue := make([]bool, m)
	push := func(i int) {
		if !inQueue[i] && bad(i) {
			inQueue[i] = true
			queue = append(queue, i)
		}
	}
	for i := 0; i < m; i++ {
		push(i)
	}
	remove := func(i int) {
		k := norm(ea[i], eb[i])
		count[k]--
		if count[k] == 0 {
			delete(count, k)
		}
	}
	add := func(i int) { count[norm(ea[i], eb[i])]++ }

	for guard := 0; len(queue) > 0; guard++ {
		if guard > 200*m {
			return nil, false // pathological instance; caller reshuffles
		}
		i := queue[0]
		queue = queue[1:]
		inQueue[i] = false
		if !bad(i) {
			continue
		}
		j := r.Intn(m)
		a, b, c, dd := ea[i], eb[i], ea[j], eb[j]
		// Propose the double swap (a,b),(c,dd) -> (a,dd),(c,b).
		if j == i || a == dd || c == b {
			push(i)
			continue
		}
		remove(i)
		remove(j)
		if count[norm(a, dd)] > 0 || count[norm(c, b)] > 0 {
			add(i)
			add(j)
			push(i)
			continue
		}
		eb[i], eb[j] = dd, b
		add(i)
		add(j)
		push(i)
		push(j)
	}

	g := &Graph{N: n, Adj: make([][]int, n)}
	for i := 0; i < m; i++ {
		g.Adj[ea[i]] = append(g.Adj[ea[i]], eb[i])
		g.Adj[eb[i]] = append(g.Adj[eb[i]], ea[i])
	}
	sortAdj(g)
	return g, true
}

func sortAdj(g *Graph) {
	for i := range g.Adj {
		insertionSort(g.Adj[i])
	}
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
