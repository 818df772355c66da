package checkpoint

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// randomParams builds a parameter vector with a mix of ordinary and
// awkward-but-finite values, so round-trip checks exercise the codec's
// full bit range.
func randomParams(r *rng.RNG, n int) tensor.Vector {
	v := tensor.NewVector(n)
	for i := range v {
		switch r.Intn(8) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = -0.0
		case 2:
			v[i] = math.SmallestNonzeroFloat64 * float64(1+r.Intn(100))
		case 3:
			v[i] = math.MaxFloat64 * r.Float64()
		default:
			v[i] = r.NormFloat64()
		}
	}
	return v
}

func sameBits(t *testing.T, want, got tensor.Vector) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("length %d != %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("param %d: %v (%#x) != %v (%#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestStoreRoundTripProperty is the round-trip property test: Save -> Load
// must be byte-identical for random networks, for both store kinds.
func TestStoreRoundTripProperty(t *testing.T) {
	r := rng.New(99)
	dir := t.TempDir()
	const nodes = 6
	mem, err := NewMemStore(nodes)
	if err != nil {
		t.Fatal(err)
	}
	file, err := NewFileStore(filepath.Join(dir, "store"), nodes)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		// A random network geometry each trial; its parameters are the
		// random init of nn.LogisticRegression plus adversarial values.
		dim, classes := 1+r.Intn(40), 2+r.Intn(10)
		net := nn.LogisticRegression(dim, classes, rng.Derive(99, uint64(trial)))
		params := randomParams(r, net.ParamCount())
		net.SetParams(params)
		want := tensor.NewVector(net.ParamCount())
		net.CopyParamsTo(want)

		node, round := trial%nodes, trial
		for name, store := range map[string]Store{"mem": mem, "file": file} {
			if err := store.Save(node, round, want); err != nil {
				t.Fatalf("%s save: %v", name, err)
			}
			snap, ok, err := store.Load(node)
			if err != nil || !ok {
				t.Fatalf("%s load: ok=%v err=%v", name, ok, err)
			}
			if snap.Round != round {
				t.Fatalf("%s round stamp %d, want %d", name, snap.Round, round)
			}
			sameBits(t, want, snap.Params)
		}
	}
}

func TestStoreValidatesAndMissReports(t *testing.T) {
	if _, err := NewMemStore(0); err == nil {
		t.Fatal("zero-node mem store should error")
	}
	if _, err := NewFileStore("", 4); err == nil {
		t.Fatal("empty dir should error")
	}
	if _, err := NewFileStore(t.TempDir(), 0); err == nil {
		t.Fatal("zero-node file store should error")
	}
	mem, _ := NewMemStore(2)
	file, _ := NewFileStore(t.TempDir(), 2)
	for name, store := range map[string]Store{"mem": mem, "file": file} {
		if store.Nodes() != 2 {
			t.Fatalf("%s covers %d nodes", name, store.Nodes())
		}
		if _, ok, err := store.Load(1); ok || err != nil {
			t.Fatalf("%s: unsnapshotted load ok=%v err=%v", name, ok, err)
		}
		if err := store.Save(2, 0, tensor.NewVector(3)); err == nil {
			t.Fatalf("%s: out-of-range save should error", name)
		}
		if _, _, err := store.Load(-1); err == nil {
			t.Fatalf("%s: out-of-range load should error", name)
		}
	}
}

func TestFileStoreNegativeRoundAndOverwrite(t *testing.T) {
	s, err := NewFileStore(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// A node that dies before ever aggregating is stamped -1.
	if err := s.Save(0, -1, tensor.Vector{1, 2}); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := s.Load(0)
	if err != nil || !ok || snap.Round != -1 {
		t.Fatalf("round stamp %d ok=%v err=%v, want -1", snap.Round, ok, err)
	}
	// Overwrite replaces, never appends.
	if err := s.Save(0, 7, tensor.Vector{3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	snap, _, _ = s.Load(0)
	if snap.Round != 7 || len(snap.Params) != 3 || snap.Params[2] != 5 {
		t.Fatalf("overwrite failed: %+v", snap)
	}
}

func TestFileStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(0, 3, tensor.Vector{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "node-0000.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff // flip a param byte; crc must catch it
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(0); err == nil {
		t.Fatal("corrupted snapshot loaded without error")
	}
}

func TestTrackerLifecycle(t *testing.T) {
	tr, err := NewTracker(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTracker(0); err == nil {
		t.Fatal("zero-node tracker should error")
	}
	// Round 0: node 2 starts dead (presumed live before round 0 -> death).
	died, revived := tr.Observe(0, []bool{true, true, false})
	if len(died) != 1 || died[0] != 2 || len(revived) != 0 {
		t.Fatalf("round 0: died=%v revived=%v", died, revived)
	}
	// Round 1: node 0 dies; nil-mask shorthand not used here.
	died, revived = tr.Observe(1, []bool{false, true, false})
	if len(died) != 1 || died[0] != 0 || len(revived) != 0 {
		t.Fatalf("round 1: died=%v revived=%v", died, revived)
	}
	if !tr.dead[0] || tr.dead[1] || !tr.dead[2] {
		t.Fatal("dead mask wrong after round 1")
	}
	// Round 4: everyone back. Node 0 missed rounds 1-3 (staleness 3);
	// node 2 missed rounds 0-3 (staleness 4, never live).
	died, revived = tr.Observe(4, nil)
	if len(died) != 0 || len(revived) != 2 {
		t.Fatalf("round 4: died=%v revived=%v", died, revived)
	}
	if revived[0] != (Revival{Node: 0, Staleness: 3}) {
		t.Fatalf("node 0 revival %+v", revived[0])
	}
	if revived[1] != (Revival{Node: 2, Staleness: 4}) {
		t.Fatalf("node 2 revival %+v", revived[1])
	}
	if tr.lastLive[1] != 4 || tr.lastLive[0] != 4 {
		t.Fatal("lastLive not advanced")
	}
	// Dead for exactly one round -> staleness 1.
	tr.Observe(5, []bool{false, true, true})
	_, revived = tr.Observe(6, nil)
	if len(revived) != 1 || revived[0] != (Revival{Node: 0, Staleness: 1}) {
		t.Fatalf("one-round outage revival %+v", revived)
	}
}

func TestTrackerRejectsNonIncreasingRounds(t *testing.T) {
	tr, err := NewTracker(2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.LastObserved() != -1 {
		t.Fatalf("fresh tracker observed %d", tr.LastObserved())
	}
	tr.Observe(3, nil)
	if tr.LastObserved() != 3 {
		t.Fatalf("LastObserved = %d, want 3", tr.LastObserved())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Observe going backwards must panic")
		}
	}()
	tr.Observe(3, nil)
}

// TestCatchUpWeightsConvexProperty is the convexity property test: for 1k
// random staleness draws (and random half-lives) the blend weights are
// non-negative and sum to exactly 1.
func TestCatchUpWeightsConvexProperty(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 1000; trial++ {
		halfLife := 0.1 + 20*r.Float64()
		c, err := NewCatchUp(halfLife)
		if err != nil {
			t.Fatal(err)
		}
		s := r.Intn(10000)
		wSnap, wNbr := c.Weights(s)
		if wSnap < 0 || wNbr < 0 {
			t.Fatalf("h=%v s=%d: negative weight (%v, %v)", halfLife, s, wSnap, wNbr)
		}
		if wSnap+wNbr != 1 {
			t.Fatalf("h=%v s=%d: weights sum to %v, want exactly 1", halfLife, s, wSnap+wNbr)
		}
		if wSnap > 1 {
			t.Fatalf("h=%v s=%d: snapshot weight %v > 1", halfLife, s, wSnap)
		}
	}
	// Half-life semantics: at s = halfLife the node trusts both sides equally.
	c, _ := NewCatchUp(4)
	if w, _ := c.Weights(4); math.Abs(w-0.5) > 1e-15 {
		t.Fatalf("at one half-life w=%v, want 0.5", w)
	}
	// Monotone decay.
	prev := math.Inf(1)
	for s := 0; s < 50; s++ {
		w, _ := c.Weights(s)
		if w >= prev {
			t.Fatalf("weight not strictly decaying at s=%d", s)
		}
		prev = w
	}
	if _, err := NewCatchUp(0); err == nil {
		t.Fatal("zero half-life should error")
	}
	if _, err := NewCatchUp(math.Inf(1)); err == nil {
		t.Fatal("infinite half-life should error")
	}
}

func TestRulesApplySemantics(t *testing.T) {
	current := tensor.Vector{1, 1}
	snapshot := tensor.Vector{1, 1} // own snapshot == frozen state by construction
	nbr := tensor.Vector{3, 5}
	dst := tensor.NewVector(2)
	rj := Rejoin{Node: 0, Round: 10, Staleness: 2, Current: current, Snapshot: snapshot, NeighborMean: nbr}

	if restored := (ResumeStale{}).Apply(dst, rj); restored {
		t.Fatal("resume-stale claims to restore")
	}
	sameVec(t, dst, tensor.Vector{1, 1})

	if restored := (RestoreCheckpoint{}).Apply(dst, rj); !restored {
		t.Fatal("restore-checkpoint with live neighbors must restore")
	}
	sameVec(t, dst, nbr)

	// Isolated revival falls back to the durable snapshot — which equals
	// the frozen state, so it does not count as replacing it.
	iso := rj
	iso.NeighborMean = nil
	if restored := (RestoreCheckpoint{}).Apply(dst, iso); restored {
		t.Fatal("isolated snapshot fallback must not count as a restore")
	}
	sameVec(t, dst, snapshot)
	iso.Snapshot = nil
	if restored := (RestoreCheckpoint{}).Apply(dst, iso); restored {
		t.Fatal("nothing to restore from must report false")
	}

	// CatchUp at one half-life: exact midpoint.
	c, _ := NewCatchUp(2)
	if restored := c.Apply(dst, rj); !restored {
		t.Fatal("catch-up with neighbors must restore")
	}
	sameVec(t, dst, tensor.Vector{0.5*1 + 0.5*3, 0.5*1 + 0.5*5})
	// No neighbors: pure snapshot, no restore claimed.
	if restored := c.Apply(dst, iso); restored {
		t.Fatal("catch-up without neighbors or snapshot cannot restore")
	}
}

func TestRuleByName(t *testing.T) {
	for name, want := range map[string]string{
		"stale":   "resume-stale",
		"restore": "restore-checkpoint",
		"catchup": "catch-up(h=2)",
	} {
		rule, err := RuleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if rule.Name() != want {
			t.Fatalf("%s -> %s, want %s", name, rule.Name(), want)
		}
	}
	if _, err := RuleByName("nope"); err == nil {
		t.Fatal("unknown rule should error")
	}
}

func TestManagerWiring(t *testing.T) {
	if _, err := NewManager(4, nil, nil); err == nil {
		t.Fatal("nil rule should error")
	}
	small, _ := NewMemStore(2)
	if _, err := NewManager(4, small, ResumeStale{}); err == nil {
		t.Fatal("store/manager size mismatch should error")
	}
	m, err := NewManager(4, nil, ResumeStale{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 4 || m.store.Nodes() != 4 || m.Rule().Name() != "resume-stale" {
		t.Fatal("manager accessors wrong")
	}
	died, revived := m.BeginRound(0, []bool{true, false, true, true})
	if len(died) != 1 || died[0] != 1 || len(revived) != 0 {
		t.Fatalf("round 0 events: died=%v revived=%v", died, revived)
	}
	if err := m.Snapshot(1, -1, tensor.Vector{9}); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := m.Load(1)
	if err != nil || !ok || snap.Round != -1 || snap.Params[0] != 9 {
		t.Fatalf("manager load %+v ok=%v err=%v", snap, ok, err)
	}
	_, revived = m.BeginRound(1, nil)
	if len(revived) != 1 || revived[0] != (Revival{Node: 1, Staleness: 1}) {
		t.Fatalf("revival %+v", revived)
	}
	if m.Tracker().lastLive[1] != 1 {
		t.Fatal("tracker not advanced through manager")
	}
}

func sameVec(t *testing.T, got, want tensor.Vector) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vector %v, want %v", got, want)
		}
	}
}
