package experiments

import (
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/sweep"
)

// cellHash builds the cache key hash a grid cell would get under the
// given options, degree, regime index, and schedule.
func cellHash(t *testing.T, o Options, degree, regimeIdx, gt, gs int) string {
	t.Helper()
	o = o.Defaults()
	w, err := newGammaGrid(newWorld(o, cifar, degree), GammaGridRegimes(o), nil)
	if err != nil {
		t.Fatal(err)
	}
	return w.cellManifest(w.regimes[regimeIdx], w.id.regimes[regimeIdx].trace, gt, gs).Build().ConfigHash
}

// figure3Hash is the cache key hash of Figure 3's (Γt, Γs) cell on the
// d-regular topology under the given options.
func figure3Hash(t *testing.T, o Options, degree, gt, gs int) string {
	t.Helper()
	o = o.Defaults()
	o.Sweep = sweep.NewRunner(nil, nil)
	keys, err := figure3Keys(newWorld(o, cifar, degree))
	if err != nil {
		t.Fatal(err)
	}
	return keys[gs-1][gt-1].ConfigHash
}

// TestCellManifestKeyStability is the key-stability table: every knob that
// changes a cell's computed bits must move its ConfigHash, and every knob
// that cannot — telemetry, the memo runner itself, worker count — must
// leave it untouched. A key that under-hashes serves stale bits; one that
// over-hashes silently destroys the cache's hit rate.
func TestCellManifestKeyStability(t *testing.T) {
	base := cellHash(t, tiny(), 6, 1, 2, 3)

	t.Run("distinct", func(t *testing.T) {
		seed := tiny()
		seed.Seed++
		nodes := tiny()
		nodes.Nodes = 32
		rounds := tiny()
		rounds.Rounds++
		lr := tiny()
		lr.LR = 0.1
		noise := tiny()
		noise.Noise = 3.0
		cases := map[string]string{
			"seed":    cellHash(t, seed, 6, 1, 2, 3),
			"nodes":   cellHash(t, nodes, 6, 1, 2, 3),
			"rounds":  cellHash(t, rounds, 6, 1, 2, 3),
			"lr":      cellHash(t, lr, 6, 1, 2, 3),
			"noise":   cellHash(t, noise, 6, 1, 2, 3),
			"degree":  cellHash(t, tiny(), 8, 1, 2, 3),
			"regime":  cellHash(t, tiny(), 6, 3, 2, 3),
			"gamma-t": cellHash(t, tiny(), 6, 1, 3, 3),
			"gamma-s": cellHash(t, tiny(), 6, 1, 2, 4),
			// A Figure 3 cell never answers for the harvest cell of the
			// same degree and Γ, nor for another Figure 3 cell.
			"figure3":         figure3Hash(t, tiny(), 6, 2, 3),
			"figure3-seed":    figure3Hash(t, seed, 6, 2, 3),
			"figure3-lr":      figure3Hash(t, lr, 6, 2, 3),
			"figure3-degree":  figure3Hash(t, tiny(), 8, 2, 3),
			"figure3-gamma-t": figure3Hash(t, tiny(), 6, 3, 3),
			"figure3-gamma-s": figure3Hash(t, tiny(), 6, 2, 4),
		}
		seen := map[string]string{base: "base"}
		for name, h := range cases {
			if prev, dup := seen[h]; dup {
				t.Errorf("%s collides with %s: %s", name, prev, h)
			}
			seen[h] = name
		}
	})

	t.Run("identical", func(t *testing.T) {
		probed := tiny()
		probed.Probe = obs.NewProbe(obstest.NewMemory())
		swept := tiny()
		swept.Sweep = sweep.NewRunner(sweep.NewMemStore(0), nil)
		evalEvery := tiny()
		evalEvery.EvalEvery = 1 // cells always run EvalEvery 0
		cases := map[string]string{
			"probe-attached": cellHash(t, probed, 6, 1, 2, 3),
			"sweep-attached": cellHash(t, swept, 6, 1, 2, 3),
			"eval-every":     cellHash(t, evalEvery, 6, 1, 2, 3),
		}
		old := runtime.GOMAXPROCS(1)
		cases["gomaxprocs"] = cellHash(t, tiny(), 6, 1, 2, 3)
		runtime.GOMAXPROCS(old)
		for name, h := range cases {
			if h != base {
				t.Errorf("%s moved the hash: %s != %s", name, h, base)
			}
		}
		figure3 := figure3Hash(t, tiny(), 6, 2, 3)
		for name, h := range map[string]string{
			"figure3-again":      figure3Hash(t, tiny(), 6, 2, 3),
			"figure3-probe":      figure3Hash(t, probed, 6, 2, 3),
			"figure3-eval-every": figure3Hash(t, evalEvery, 6, 2, 3),
		} {
			if h != figure3 {
				t.Errorf("%s moved the hash: %s != %s", name, h, figure3)
			}
		}
	})
}

// TestManifestEngineAndBatteryShapeHashed pins the remaining key axes at
// the manifest level: the engine string (the sim and async engines must
// never share cells even for otherwise-identical configs) and the fleet
// battery shape fields cellManifest hashes.
func TestManifestEngineAndBatteryShapeHashed(t *testing.T) {
	build := func(engine string, capacity, initial float64) string {
		return obs.NewManifest(engine, "", 7).
			Scale(16, 20).
			SetFloat("fleet_capacity_rounds", capacity).
			SetFloat("fleet_initial_soc", initial).
			Build().ConfigHash
	}
	base := build("sim", 12, 0.75)
	if h := build("async", 12, 0.75); h == base {
		t.Error("sim and async engines share a config hash")
	}
	if h := build("sim", 24, 0.75); h == base {
		t.Error("battery capacity not hashed")
	}
	if h := build("sim", 12, 0.5); h == base {
		t.Error("initial SoC not hashed")
	}
	if h := build("sim", 12, 0.75); h != base {
		t.Error("identical configs hash differently")
	}
}

// TestCellKeyGoldenBytes pins the key bytes themselves: every cache
// directory users filled is addressed by them. The literals move only when
// a cached payload changes meaning; they last moved when the cell manifest
// gained readout=node-mean-over-period, the day a cell's accuracy became
// its nodes' mean accuracy over its last Γ period. The keys from before
// (older) address cells whose FinalAcc is another number — the averaged
// model's (readout=averaged-model), and before that the nodes' mean at T
// (no readout field) — so no key may equal one of them: a build that
// forgot or misnamed the readout field would serve those cells as the new
// readout.
// TestCellManifestKeyStability above would still pass if every hash moved
// together — this is the test a key-derivation refactor that silently
// orphans those caches fails.
func TestCellKeyGoldenBytes(t *testing.T) {
	older := map[string]bool{
		// readout=averaged-model
		"fbd9ce441c51997dfd7ab82ebf6ec010": true,
		"660d46ff1bc1a65f7c415a92029a75dc": true,
		"da6019c993583d2ad083af53ad213ac9": true,
		"14e60004b94ae4fc01051a654ee48d8e": true,
		"e800e8cb7c73f083efcd5b8920397b35": true,
		// no readout field: the nodes' mean at T
		"4f2b59064732e32ab7ed7d161e8bb2f9": true,
		"efce7301298c4b4eecf97a69721f30b7": true,
		"45cf57a39a8f55f82adf5807dde99e51": true,
		"802bc313d43416ee10345aff6c136464": true,
		"e5d85a2da33424a9d89e69bbf26deb94": true,
	}
	for _, g := range []struct {
		degree, regime, gt, gs int
		hash                   string
	}{
		{6, 1, 2, 3, "a8a41dabc9da930c33db2c61051df582"},
		{6, 0, 1, 1, "7d731ab4e1e84925ef39ede9821d12d2"},
		{4, 3, 4, 2, "5063151408fd3120c055a80fb62dcc03"},
		{8, 4, 3, 4, "56fd3a96adbd6a734cb4b1149973d0f5"},
		{6, 2, 4, 4, "ee0461939709d41dd74df278535852bf"},
	} {
		h := cellHash(t, tiny(), g.degree, g.regime, g.gt, g.gs)
		if older[h] {
			t.Errorf("degree %d regime %d Γt=%d Γs=%d: ConfigHash %s addresses a cell stored under an older readout", g.degree, g.regime, g.gt, g.gs, h)
		}
		if h != g.hash {
			t.Errorf("degree %d regime %d Γt=%d Γs=%d: ConfigHash %s, golden %s", g.degree, g.regime, g.gt, g.gs, h, g.hash)
		}
	}
}

// The keys a grid actually looks cells up by (gridKeys: one builder per
// regime, two fields re-set per cell, no manifest) equal the keys of the
// full per-cell manifests for all 80 cells of a table, and no two collide.
func TestRegimeKeysMatchCellManifests(t *testing.T) {
	o := tiny().Defaults()
	o.Sweep = sweep.NewRunner(nil, nil)
	w, err := newGammaGrid(newWorld(o, cifar, 6), GammaGridRegimes(o), nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[sweep.CellKey]bool{}
	for ri, regime := range w.regimes {
		id := w.id.regimes[ri]
		for gs := 1; gs <= gammaGridMax; gs++ {
			for gt := 1; gt <= gammaGridMax; gt++ {
				m := w.cellManifest(regime, id.trace, gt, gs).Build()
				want := sweep.CellKey{ConfigHash: m.ConfigHash, Revision: m.GitRevision}
				if got := id.keys[gs-1][gt-1]; got != want {
					t.Fatalf("%s Γt=%d Γs=%d: fast key %s, manifest key %s", regime.Name, gt, gs, got, want)
				}
				seen[want] = true
			}
		}
	}
	if len(seen) != 80 {
		t.Fatalf("%d distinct keys for 80 cells", len(seen))
	}
}

// hashedFieldVariants is tiny() (first) and one copy per Options field
// that cellManifest hashes, each differing from tiny() in that field alone.
func hashedFieldVariants() (names []string, variants []Options) {
	for _, v := range []struct {
		name string
		edit func(*Options)
	}{
		{"base", func(o *Options) {}},
		{"seed", func(o *Options) { o.Seed++ }},
		{"nodes", func(o *Options) { o.Nodes = 32 }},
		{"rounds", func(o *Options) { o.Rounds++ }},
		{"lr", func(o *Options) { o.LR = 0.1 }},
		{"batch", func(o *Options) { o.BatchSize++ }},
		{"local_steps", func(o *Options) { o.LocalSteps++ }},
		{"train_per_node", func(o *Options) { o.TrainPerNode++ }},
		{"test_samples", func(o *Options) { o.TestSamples++ }},
		{"noise", func(o *Options) { o.Noise = 3.0 }},
		{"eval_subsample", func(o *Options) { o.EvalSubsample++ }},
	} {
		o := tiny().Defaults()
		v.edit(&o)
		names, variants = append(names, v.name), append(variants, o)
	}
	return names, variants
}

// TestIdentityMemoServesFreshKeys interleaves random Options x degree
// through one memo of capacity 4: whatever the memo serves equals the
// identity derived fresh for that job — fingerprint, trace names and all
// eighty keys — it never holds more than its capacity, and it does serve
// (a memo that always missed would pass the first check).
func TestIdentityMemoServesFreshKeys(t *testing.T) {
	memo := &identityMemo{capacity: 4}
	runner := sweep.NewRunner(nil, nil)
	_, variants := hashedFieldVariants()
	for i := range variants {
		variants[i].Sweep = runner
	}
	degrees := []int{4, 6, 8}
	r := rand.New(rand.NewPCG(7, 11))
	served := 0
	for step := 0; step < 300; step++ {
		// A small working set most of the time, so entries are hit before
		// the memo fills and clears; the whole space now and then.
		o, degree := variants[r.IntN(2)], degrees[r.IntN(2)]
		if r.IntN(4) == 0 {
			o, degree = variants[r.IntN(len(variants))], degrees[r.IntN(len(degrees))]
		}
		if step%2 == 1 {
			o.Out, o.Probe = &strings.Builder{}, obs.NewProbe(obstest.NewMemory()) // handles are not identity
		}
		held := memo.get(o, degree)
		got, err := newGammaGrid(newWorld(o, cifar, degree), GammaGridRegimes(o), memo)
		if err != nil {
			t.Fatal(err)
		}
		if held != nil {
			if got.id != held {
				t.Fatalf("step %d: the memo held an identity and the world derived another", step)
			}
			served++
		}
		fresh, err := newGammaGrid(newWorld(o, cifar, degree), GammaGridRegimes(o), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.id.fingerprint != fresh.id.fingerprint || len(got.id.regimes) != len(fresh.regimes) {
			t.Fatalf("step %d: fingerprint %016x over %d regimes, fresh %016x over %d", step, got.id.fingerprint, len(got.id.regimes), fresh.id.fingerprint, len(fresh.regimes))
		}
		for ri, regime := range fresh.regimes {
			want := regimeIdentity{fresh.id.regimes[ri].trace, gridKeys(fresh.cellManifest(regime, fresh.id.regimes[ri].trace, 1, 1))}
			if got.id.regimes[ri] != want {
				t.Fatalf("step %d, %s: served identity differs from the fresh one:\n%+v\n%+v", step, regime.Name, got.id.regimes[ri], want)
			}
		}
		if n := len(memo.m); n > memo.capacity {
			t.Fatalf("step %d: memo holds %d identities, capacity %d", step, n, memo.capacity)
		}
	}
	if served < 100 {
		t.Fatalf("the memo served %d of 300 lookups: the interleaving never exercises a hit", served)
	}
}

// Two jobs that differ in any one hashed field, or in the degree, never
// share a memo entry; two that differ only in their handles do. An
// unkeyed grid neither reads nor feeds the memo, and a world that fails to
// build leaves nothing behind.
func TestIdentityMemoKeySeparatesHashedFields(t *testing.T) {
	names, variants := hashedFieldVariants()
	base := variants[0]
	base.Sweep = sweep.NewRunner(nil, nil)
	memo := &identityMemo{}
	if _, err := newGammaGrid(newWorld(base, cifar, 6), GammaGridRegimes(base), memo); err != nil {
		t.Fatal(err)
	}
	for i, o := range variants {
		o.Sweep = sweep.NewRunner(nil, nil) // another job's runner
		if hit := memo.get(o, 6) != nil; hit != (i == 0) {
			t.Errorf("%s: a lookup after the base job hit = %v", names[i], hit)
		}
	}
	if memo.get(base, 8) != nil {
		t.Error("degree 8 shares degree 6's entry")
	}

	memo = &identityMemo{}
	unkeyed := variants[0]
	if _, err := newGammaGrid(newWorld(unkeyed, cifar, 6), GammaGridRegimes(unkeyed), memo); err != nil {
		t.Fatal(err)
	}
	if _, err := newGammaGrid(newWorld(base, cifar, 17), GammaGridRegimes(base), memo); err == nil {
		t.Fatal("a 17-regular graph on 16 nodes built")
	}
	if len(memo.m) != 0 {
		t.Fatalf("memo holds %d entries after an unkeyed grid and a failed world", len(memo.m))
	}
}
