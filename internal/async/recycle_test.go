package async

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Equal-time events pop in the order they were scheduled (seq), whatever
// order they were pushed in and however pushes interleave with pops.
func TestEventQueuePopsByTimeThenSeq(t *testing.T) {
	r := rng.New(11)
	const n = 500
	q := &eventQueue{}
	popped := make([]event, 0, n)
	for i, seq := range r.Perm(n) {
		// Five distinct times, so ties are the common case.
		q.push(event{time: float64(seq % 5), kind: evStep, node: seq, seq: seq})
		if i%7 == 6 { // pops between pushes see a partly built heap
			popped = append(popped, q.pop())
		}
	}
	// Drain, then push the early pops back: the final sequence is the full
	// sort however the heap was churned.
	for _, e := range popped {
		q.push(e)
	}
	var prev event
	for i := 0; len(*q) > 0; i++ {
		e := q.pop()
		if i > 0 && (e.time < prev.time || (e.time == prev.time && e.seq <= prev.seq)) {
			t.Fatalf("pop %d: (t=%v seq=%d) after (t=%v seq=%d)", i, e.time, e.seq, prev.time, prev.seq)
		}
		if e.node != e.seq {
			t.Fatalf("pop %d: payload %d travelled with key %d", i, e.node, e.seq)
		}
		prev = e
	}
}

// FuzzMailbox drives the mailbox with scripts of pushes, merges and
// overwrites of a sender's model over 1–8 nodes, against a reference that
// queues Clone()d models in per-node slices. Every merge of k queued models
// into a node's model x
//   - equals, bit for bit, a plain loop in the mailbox's order:
//     (x + ((q₁ + q₂) + …)) / (k+1), the queue summed from zero first;
//   - lies within 2·γ(k+2) of the mean magnitude Σ|v|/(k+1) of the
//     arrival-order mean w·x + w·q₁ + … (w = 1/(k+1)) that WeightedSumTo
//     computes, where γ(m) = m·u/(1 − m·u) and u = 2⁻⁵³ bound the rounding
//     of an m-operation sum: the running sums reorder the same mean, and
//     each order is within γ(k+2) of the exact one;
//   - and, for one queued model q, is (x+q)/2 exactly.
//
// An overwrite after a push must not move the queued model, so the sums
// hold copies, not references.
//
// A script byte packs the operation (low two bits: 0 and 3 push, 1 merge,
// 2 overwrite), the node it acts on (bits 2–4) and the sender (bits 5–7).
func FuzzMailbox(f *testing.F) {
	f.Add(uint8(1), uint16(2), uint64(1), []byte{0x20, 0x01})                                              // two nodes: one queued model, merged
	f.Add(uint8(2), uint16(2047), uint64(2), []byte{0x20, 0x40, 0x22, 0x01, 0x24, 0x29, 0x05, 0x20, 0x01}) // wide models
	f.Add(uint8(7), uint16(600), uint64(3), []byte{0xe0, 0xc4, 0xa8, 0x8c, 0x70, 0x54, 0x38, 0x1c, 0x01, 0x05, 0x09, 0xe2, 0x20, 0x0d, 0x21, 0x1d})
	f.Add(uint8(0), uint16(169), uint64(4), []byte{0x00, 0x00, 0x02, 0x01, 0x01, 0x03, 0x03, 0x01})
	f.Fuzz(func(t *testing.T, nodes uint8, width uint16, seed uint64, script []byte) {
		n, p := 1+int(nodes%8), 1+int(width%2304)
		r := rng.New(seed)
		models := make([]tensor.Vector, n)
		for i := range models {
			models[i] = tensor.NewVector(p)
			r.Normals(models[i])
		}
		m, ref := newMailbox(n, p), make([][]tensor.Vector, n)
		gamma := func(ops int) float64 { u := 0x1p-53; return float64(ops) * u / (1 - float64(ops)*u) }
		for k, op := range script[:min(len(script), 512)] {
			i, src := int(op>>2&7)%n, int(op>>5)%n
			switch op & 3 {
			case 0, 3:
				m.push(i, models[src])
				ref[i] = append(ref[i], models[src].Clone())
			case 1:
				own, want, arrival := models[i].Clone(), models[i].Clone(), models[i].Clone()
				q := ref[i]
				if len(q) > 0 {
					d := float64(len(q) + 1)
					for j := range want {
						s := 0.0
						for _, v := range q {
							s += v[j]
						}
						want[j] = (own[j] + s) / d
					}
					ws := make([]float64, len(q)+1)
					for j := range ws {
						ws[j] = 1 / d
					}
					tensor.WeightedSumTo(arrival, ws, append([]tensor.Vector{own}, q...))
				}
				m.merge(i, models[i])
				for j, got := range models[i] {
					if math.Float64bits(got) != math.Float64bits(want[j]) {
						t.Fatalf("op %d: node %d merged %v at %d, the plain loop %v", k, i, got, j, want[j])
					}
					mag := math.Abs(own[j])
					for _, v := range q {
						mag += math.Abs(v[j])
					}
					if bound := 2 * gamma(len(q)+2) * mag / float64(len(q)+1); math.Abs(got-arrival[j]) > bound {
						t.Fatalf("op %d: node %d merged %v at %d, %v from the arrival-order mean %v; bound %v", k, i, got, j, got-arrival[j], arrival[j], bound)
					}
					if len(q) == 1 && got != (own[j]+q[0][j])/2 {
						t.Fatalf("op %d: a one-model merge gave %v at %d, want (x+q)/2 = %v", k, got, j, (own[j]+q[0][j])/2)
					}
				}
				ref[i] = ref[i][:0]
			case 2: // the sender trains on; what it queued must not move
				r.Normals(models[src])
			}
		}
	})
}

// TestAsyncAllocsIndependentOfGossips: a gossip adds two models into
// running sums of the run's mailbox and the event heap is sized at set-up,
// so a run that gossips 1 235 times allocates exactly as often as one that
// gossips 19 991 times, and at most 50 times. Under the race detector the
// runs still go, counts unchecked.
func TestAsyncAllocsIndependentOfGossips(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := func(horizon float64, gossips int) float64 {
		least := math.Inf(1)
		for try := 0; try < 3; try++ {
			cfg := testConfig(t, 25)
			cfg.Horizon = horizon
			least = min(least, testing.AllocsPerRun(1, func() {
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.GossipsSent != gossips {
					t.Fatalf("horizon %v: %d gossips, want %d", horizon, res.GossipsSent, gossips)
				}
			}))
		}
		return least
	}
	short, long := allocs(200, 1235), allocs(3200, 19991)
	t.Logf("%v allocations at 1 235 gossips, %v at 19 991", short, long)
	if raceEnabled {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	if short != long || long > 50 {
		t.Fatalf("1 235 gossips allocate %v times, 19 991 gossips %v; want equal and at most 50", short, long)
	}
}

// TestAsyncMemoryIndependentOfQueueDepth: a node's queued models are one
// running sum, so a run allocates the same bytes, as often, however deep
// its queues get. Slowing node 0's device 100× lets its four neighbours
// queue about 130 models on it between two of its steps, against about 2
// in the fleet as built; the run's memory must not see the difference. A
// mailbox that kept each queued model as a copy allocated 63 times and
// 170 304 B against 43 times and 51 200 B. Under the race detector the
// runs still go, counts unchecked.
func TestAsyncMemoryIndependentOfQueueDepth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cost := func(slow float64) (allocs, bytes uint64, depth float64) {
		allocs, bytes = math.MaxUint64, math.MaxUint64
		for try := 0; try < 3; try++ {
			cfg := testConfig(t, 25)
			cfg.Horizon = 3200
			cfg.Devices[0].InferenceSeconds *= slow
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Run(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			allocs, bytes = min(allocs, after.Mallocs-before.Mallocs), min(bytes, after.TotalAlloc-before.TotalAlloc)
			// A node's own gossip queues one model on it, and each step of a
			// neighbour gossips with it with chance 1/degree.
			nbrs, queued := cfg.Graph.Adj[0], 0
			for _, j := range nbrs {
				queued += res.StepsPerNode[j]
			}
			depth = 1 + float64(queued)/float64(len(nbrs)*res.StepsPerNode[0])
		}
		return allocs, bytes, depth
	}
	allocs, bytes, shallow := cost(1)
	deepAllocs, deepBytes, deep := cost(100)
	t.Logf("%d allocations, %d B at about %.1f models a merge on node 0; %d, %d B at about %.1f", allocs, bytes, shallow, deepAllocs, deepBytes, deep)
	if deep < 10*shallow {
		t.Fatalf("node 0 merges about %.1f models at a time, want at least 10× the %.1f of the fleet as built", deep, shallow)
	}
	if raceEnabled {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	if deepAllocs != allocs || deepBytes != bytes {
		t.Fatalf("queues 10× deeper: %d allocations of %d B, want the %d of %d B of the fleet as built", deepAllocs, deepBytes, allocs, bytes)
	}
}

// The whole evaluation history of a harvest run — accuracy, spread and
// consensus distance, to the bit — is what the engine recorded when its
// merge became the mean of the own model and the running sum of the queue,
// evaluations stopped settling batteries and every evaluation scored the
// one test subsample drawn at set-up, replays under the same seed, and
// does not depend on GOMAXPROCS. The consensus distance reads
// every parameter of every node, so one queued model lost or counted
// twice would show.
func TestAsyncRecycledSnapshotsKeepResults(t *testing.T) {
	want := []struct {
		mean, std, consensus uint64
		steps                int
	}{
		{0x3fe26c16c16c16c1, 0x3f9d72ed1b900e19, 0x3fc480da24c792c9, 880},
		{0x3fe327d27d27d27d, 0x3f86eec1c63b594f, 0x3fbee462da909d87, 1902},
		{0x3fe293e93e93e93f, 0x3f941cfe93ff519a, 0x3fbc5b6060764f1c, 2933},
		{0x3fe24fa4fa4fa4fb, 0x3f941cfe93ff519a, 0x3fc21e9d6c229fdc, 3876},
	}
	run := func(procs int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg := harvestConfig(t, 24, nil)
		cfg.Trace = scarceDiurnal(t, cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.History) != len(want) || res.GossipsSent != 3876 {
			t.Fatalf("procs=%d: %d evaluations, %d gossips, want %d and 3876", procs, len(res.History), res.GossipsSent, len(want))
		}
		for i, h := range res.History {
			got := [3]uint64{math.Float64bits(h.MeanAcc), math.Float64bits(h.StdAcc), math.Float64bits(h.Consensus)}
			if got != [3]uint64{want[i].mean, want[i].std, want[i].consensus} || h.StepsTotal != want[i].steps {
				t.Fatalf("procs=%d eval %d: %+v differs from the recorded history", procs, i, h)
			}
		}
	}
	run(1)
	run(8)
	run(1) // replay
}

// TestAsyncAllocsIndependentOfEvaluations: every evaluation scores the
// averaged model and the consensus distance from one fleet mean per run,
// and the history is sized up front, so a run evaluated 20 times allocates
// exactly as often as one evaluated 4 times. Under the race detector the
// runs still go, counts unchecked.
func TestAsyncAllocsIndependentOfEvaluations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := func(every float64) float64 {
		least := math.Inf(1)
		for try := 0; try < 5; try++ {
			cfg := testConfig(t, 25)
			cfg.EvalEverySeconds = every
			least = min(least, testing.AllocsPerRun(2, func() {
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want := int(cfg.Horizon / every); len(res.History) != want || res.FinalGlobalAcc == 0 {
					t.Fatalf("%d evaluations, want %d; averaged model scored %v", len(res.History), want, res.FinalGlobalAcc)
				}
			}))
		}
		return least
	}
	few, many := allocs(50), allocs(10)
	if raceEnabled {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	if many != few {
		t.Fatalf("4 evaluations allocate %v times, 20 evaluations %v", few, many)
	}
}
