package experiments

import (
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// cellHash builds the cache key hash a grid cell would get under the
// given options, degree, regime index, and schedule.
func cellHash(t *testing.T, o Options, degree, regimeIdx, gt, gs int) string {
	t.Helper()
	o = o.Defaults()
	w, err := newGammaWorld(o, degree, lazyGammaData(o))
	if err != nil {
		t.Fatal(err)
	}
	regime := GammaGridRegimes(o)[regimeIdx]
	sample, err := regime.Trace(o, w.meanTrainWh)
	if err != nil {
		t.Fatal(err)
	}
	return sweep.KeyFromManifest(w.cellManifest(regime, sample.Name(), gt, gs).Build()).ConfigHash
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
		probed.Probe = obs.NewProbe(obs.NewMemory())
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
			Setf("fleet_capacity_rounds", "%g", capacity).
			Setf("fleet_initial_soc", "%g", initial).
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

// TestCellKeyGoldenBytes pins the key bytes themselves. The literals were
// produced by the commit before cell keys stopped going through
// ManifestBuilder.Build (a map of fields, sorted, Fprintf'd into the
// hasher); every cache directory users filled since is addressed by them.
// TestCellManifestKeyStability above would still pass if every hash moved
// together — this is the test a key-derivation refactor that silently
// orphans those caches fails.
func TestCellKeyGoldenBytes(t *testing.T) {
	for _, g := range []struct {
		degree, regime, gt, gs int
		hash                   string
	}{
		{6, 1, 2, 3, "4f2b59064732e32ab7ed7d161e8bb2f9"},
		{6, 0, 1, 1, "efce7301298c4b4eecf97a69721f30b7"},
		{4, 3, 4, 2, "45cf57a39a8f55f82adf5807dde99e51"},
		{8, 4, 3, 4, "802bc313d43416ee10345aff6c136464"},
		{6, 2, 4, 4, "e5d85a2da33424a9d89e69bbf26deb94"},
	} {
		if h := cellHash(t, tiny(), g.degree, g.regime, g.gt, g.gs); h != g.hash {
			t.Errorf("degree %d regime %d Γt=%d Γs=%d: ConfigHash %s, golden %s", g.degree, g.regime, g.gt, g.gs, h, g.hash)
		}
	}
}

// The keys a grid actually looks cells up by (regimeKeys: one builder per
// regime, two fields re-set per cell, no manifest) equal the keys of the
// full per-cell manifests for all 80 cells of a table, and no two collide.
func TestRegimeKeysMatchCellManifests(t *testing.T) {
	o := tiny().Defaults()
	w, err := newGammaWorld(o, 6, lazyGammaData(o))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[sweep.CellKey]bool{}
	for _, regime := range GammaGridRegimes(o) {
		sample, err := regime.Trace(o, w.meanTrainWh)
		if err != nil {
			t.Fatal(err)
		}
		keys := w.regimeKeys(regime, sample.Name())
		for gs := 1; gs <= gammaGridMax; gs++ {
			for gt := 1; gt <= gammaGridMax; gt++ {
				want := sweep.KeyFromManifest(w.cellManifest(regime, sample.Name(), gt, gs).Build())
				if got := keys[gs-1][gt-1]; got != want {
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
