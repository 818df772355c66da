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

// merge must leave nothing behind in the queue it drained: a buffer on the
// free list is about to be overwritten by take, so no incoming queue may
// still reach it.
func TestSnapshotsRecycleDrainedQueue(t *testing.T) {
	var s snapshots
	own, peer := tensor.Vector{1, 3}, tensor.Vector{3, 5}
	queue := []tensor.Vector{s.take(peer), s.take(peer), s.take(peer)}
	queued := append([]tensor.Vector(nil), queue...)
	peer[0] = 100 // the peer trains on; its queued snapshots must not move
	// The arithmetic is the engine's own from before the free list, taken
	// over unchanged (results are pinned to the bit): MeanVectorTo with the
	// destination as first operand.
	want := own.Clone()
	tensor.MeanVectorTo(want, []tensor.Vector{want, {3, 5}, {3, 5}, {3, 5}})
	s.merge(own, &queue)
	if own[0] != want[0] || own[1] != want[1] {
		t.Fatalf("merged model %v, want %v", own, want)
	}
	if len(queue) != 0 || len(s.free) != 3 {
		t.Fatalf("after merge: %d queued, %d free, want 0 and 3", len(queue), len(s.free))
	}
	for i, v := range queue[:3] {
		if v != nil {
			t.Fatalf("drained queue still references recycled buffer %d", i)
		}
	}
	again := s.take(tensor.Vector{7, 8})
	reused := false
	for _, v := range queued {
		reused = reused || &again[0] == &v[0]
	}
	if !reused || len(s.free) != 2 {
		t.Fatalf("take allocated instead of reusing a recycled buffer (reused=%t, free=%d)", reused, len(s.free))
	}
	if again[0] != 7 || again[1] != 8 {
		t.Fatalf("recycled snapshot holds %v, want {7 8}", again)
	}
}

// The whole evaluation history of a harvest run — accuracy, spread and
// consensus distance, to the bit — is what the cloning implementation
// produced (values recorded at commit 968df6c), replays under the same
// seed, and does not depend on GOMAXPROCS. The consensus distance reads
// every parameter of every node, so one snapshot overwritten while still
// queued would show.
func TestAsyncRecycledSnapshotsKeepResults(t *testing.T) {
	want := []struct {
		mean, std, consensus uint64
		steps                int
	}{
		{0x3fdccccccccccccc, 0x3fbc578fcb5e8359, 0x3fce29c9ca850c4b, 165},
		{0x3fd98e38e38e38e4, 0x3f9e76383b8f2775, 0x3fbd6e02edb68318, 281},
		{0x3fd960b60b60b60c, 0x3fa458fc18df514b, 0x3fbd1ac7126584cd, 282},
		{0x3fda0b60b60b60b7, 0x3fa0233ef26718df, 0x3fbd1ac7126584cd, 282},
	}
	run := func(procs int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg := harvestConfig(t, 24, nil)
		cfg.Trace = scarceDiurnal(t, cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.History) != len(want) || res.GossipsSent != 282 {
			t.Fatalf("procs=%d: %d evaluations, %d gossips, want %d and 282", procs, len(res.History), res.GossipsSent, len(want))
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
