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
// queues Clone()d models in per-node slices and merges k of them by a plain
// loop: Σ v/(k+1) over the node's own model, then the queue in arrival
// order. Every merge matches the reference bit for bit, and a one-model
// merge of x and q is (x+q)/2 exactly. After every operation each row sits on exactly one list, a node's
// queue or the free list, so no queue reaches a row that push may hand out
// again; and a chunk is cut only when every row is queued, so a drained row
// is always reused first.
//
// A script byte packs the operation (low two bits: 0 and 3 push, 1 merge,
// 2 overwrite), the node it acts on (bits 2–4) and the sender (bits 5–7).
func FuzzMailbox(f *testing.F) {
	f.Add(uint8(1), uint16(2), uint64(1), []byte{0x20, 0x01})                                              // two nodes: one queued model, merged
	f.Add(uint8(2), uint16(2047), uint64(2), []byte{0x20, 0x40, 0x22, 0x01, 0x24, 0x29, 0x05, 0x20, 0x01}) // one row a chunk
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
		m, ref := newMailbox(n, p, make([]float64, 0, n+1)), make([][]tensor.Vector, n)
		if want := max(1, mailChunkBytes/(8*p)); m.perChunk != want {
			t.Fatalf("p=%d: %d rows a chunk, want %d", p, m.perChunk, want)
		}
		queued, peak := 0, 0
		for k, op := range script[:min(len(script), 512)] {
			i, src := int(op>>2&7)%n, int(op>>5)%n
			switch op & 3 {
			case 0, 3:
				m.push(i, models[src])
				ref[i] = append(ref[i], models[src].Clone())
				queued++
				peak = max(peak, queued)
			case 1:
				own, want := models[i].Clone(), models[i].Clone()
				if len(ref[i]) > 0 {
					w := 1 / float64(len(ref[i])+1)
					for j := range want {
						want[j] = w * own[j]
						for _, q := range ref[i] {
							want[j] += w * q[j]
						}
					}
				}
				m.merge(i, models[i])
				for j := range want {
					if math.Float64bits(models[i][j]) != math.Float64bits(want[j]) {
						t.Fatalf("op %d: node %d merged %v at %d, the reference %v", k, i, models[i][j], j, want[j])
					}
					if len(ref[i]) == 1 && models[i][j] != (own[j]+ref[i][0][j])/2 {
						t.Fatalf("op %d: a one-model merge gave %v at %d, want (x+q)/2 = %v", k, models[i][j], j, (own[j]+ref[i][0][j])/2)
					}
				}
				queued -= len(ref[i])
				ref[i] = ref[i][:0]
			case 2: // the sender trains on; what it queued must not move
				r.Normals(models[src])
			}
			checkMailboxLists(t, k, m, ref, queued, k == len(script)-1 || k == 511)
			if cut := (peak + m.perChunk - 1) / m.perChunk; len(m.chunks) != cut {
				t.Fatalf("op %d: %d chunks cut for at most %d rows queued at once, want %d", k, len(m.chunks), peak, cut)
			}
		}
	})
}

// checkMailboxLists walks every node's queue and the free list: each row
// is on exactly one of them and a queue's tail is its last row. With
// contents set, a queue's rows must also hold its reference models, in
// arrival order.
func checkMailboxLists(t *testing.T, k int, m *mailbox, ref [][]tensor.Vector, queued int, contents bool) {
	t.Helper()
	if len(m.next) != 1+len(m.chunks)*m.perChunk {
		t.Fatalf("op %d: %d rows linked in %d chunks of %d", k, len(m.next)-1, len(m.chunks), m.perChunk)
	}
	seen := make([]bool, len(m.next))
	walk := func(list string, r int) (rows, last int) {
		for ; r != 0; last, r = r, m.next[r] {
			if seen[r] {
				t.Fatalf("op %d: row %d is on two lists (again on %s)", k, r, list)
			}
			seen[r] = true
			rows++
		}
		return rows, last
	}
	for i, q := range ref {
		rows, last := walk("a queue", m.head[i])
		if rows != len(q) || last != m.tail[i] {
			t.Fatalf("op %d: node %d queues %d rows ending at %d (tail %d), want %d", k, i, rows, last, m.tail[i], len(q))
		}
		for j, r := 0, m.head[i]; contents && r != 0; j, r = j+1, m.next[r] {
			for x, v := range m.row(r) {
				if math.Float64bits(v) != math.Float64bits(q[j][x]) {
					t.Fatalf("op %d: node %d's queued model %d moved at %d", k, i, j, x)
				}
			}
		}
	}
	if free, _ := walk("the free list", m.free); free+queued != len(m.next)-1 {
		t.Fatalf("op %d: %d rows free and %d queued of %d", k, free, queued, len(m.next)-1)
	}
}

// TestAsyncAllocsIndependentOfGossips: a gossip queues two model copies in
// rows of the run's mailbox, the event heap and the merge's operand list
// are sized at set-up, so a run that gossips 1 235 times allocates exactly
// as often as one that gossips 19 991 times, and at most 50 times. Under
// the race detector the runs still go, counts unchecked.
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

// The whole evaluation history of a harvest run — accuracy, spread and
// consensus distance, to the bit — is what the engine recorded when its
// merge became the uniform mean of the own model and the queue and a
// refused training step became a gossip, replays under the same seed, and
// does not depend on GOMAXPROCS. The consensus distance reads
// every parameter of every node, so one snapshot overwritten while still
// queued would show.
func TestAsyncRecycledSnapshotsKeepResults(t *testing.T) {
	want := []struct {
		mean, std, consensus uint64
		steps                int
	}{
		{0x3fe26c16c16c16c1, 0x3f9d72ed1b900e19, 0x3fc480da24c792c9, 880},
		{0x3fe4111111111111, 0x3f813e57da86961e, 0x3fbee462da909d89, 1902},
		{0x3fe38e38e38e38e3, 0x3f841cfe93ff519f, 0x3fbc5b6060764f1f, 2933},
		{0x3fe33e93e93e93e9, 0x3f9ab89bf28a226f, 0x3fc21e9d6c229fdc, 3876},
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
