package experiments

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/obstest"
	"repro/internal/sweep"
)

// cellHash is the config hash the run of a harvest grid's cell stamps
// under the given options, degree, regime index and schedule.
func cellHash(t *testing.T, o Options, degree, regimeIdx, gt, gs int) string {
	t.Helper()
	regime := gammaGridRegimes[regimeIdx]
	return stampedHash(t, newWorld(o.Defaults(), cifar, degree), cellAlgo(regime, gt, gs), regime, "val", o.Probe)
}

// figure3Hash is the config hash the run of Figure 3's (Γt, Γs) cell on
// the d-regular topology stamps, on the given split.
func figure3Hash(t *testing.T, o Options, degree, gt, gs int, split string) string {
	t.Helper()
	algo := core.SkipTrain(core.Gamma{GammaTrain: gt, GammaSync: gs})
	return stampedHash(t, newWorld(o.Defaults(), cifar, degree), algo, GammaRegime{}, split, o.Probe)
}

// stampedHash runs algo on w as a Γ-grid cell (tuneRun) and returns the
// config hash the run stamped; split "test" scores the run on the test
// split instead, and a probe attaches to it.
func stampedHash(t *testing.T, w *World, algo core.Algorithm, regime GammaRegime, split string, probe *obs.Probe) string {
	t.Helper()
	cfg, res, err := w.tuneRun(algo, regime, sweep.CellKey{})
	if err == nil && (split == "test" || probe != nil) {
		d, _ := w.data()
		if cfg.Probe = probe; split == "test" {
			cfg.Test = d.test
		}
		if err = w.tune(&cfg, regime); err == nil { // a fresh fleet: the run consumed the first
			res, err = w.run(cfg)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.Manifest.ConfigHash
}

// TestCellManifestKeyStability is the key-stability table, on the hashes
// cells' runs stamp: every knob that changes a cell's computed bits must
// move its ConfigHash, and every knob that cannot — telemetry, the memo
// runner itself, worker count — must leave it untouched. A key that
// under-hashes serves stale bits; one that over-hashes silently destroys
// the cache's hit rate.
func TestCellManifestKeyStability(t *testing.T) {
	base := cellHash(t, tiny(), 6, 1, 2, 3)
	names, variants := hashedFieldVariants()

	t.Run("distinct", func(t *testing.T) {
		cases := map[string]string{
			"degree":  cellHash(t, tiny(), 8, 1, 2, 3),
			"regime":  cellHash(t, tiny(), 6, 3, 2, 3),
			"gamma-t": cellHash(t, tiny(), 6, 1, 3, 3),
			"gamma-s": cellHash(t, tiny(), 6, 1, 2, 4),
			// A Figure 3 cell never answers for the harvest cell of the
			// same degree and Γ, nor for another Figure 3 cell, nor for
			// the same run scored on the test split.
			"figure3":         figure3Hash(t, tiny(), 6, 2, 3, "val"),
			"figure3-split":   figure3Hash(t, tiny(), 6, 2, 3, "test"),
			"figure3-degree":  figure3Hash(t, tiny(), 8, 2, 3, "val"),
			"figure3-gamma-t": figure3Hash(t, tiny(), 6, 3, 3, "val"),
			"figure3-gamma-s": figure3Hash(t, tiny(), 6, 2, 4, "val"),
		}
		for i, o := range variants[1:] {
			cases[names[i+1]] = cellHash(t, o, 6, 1, 2, 3)
			cases["figure3-"+names[i+1]] = figure3Hash(t, o, 6, 2, 3, "val")
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
		figure3 := figure3Hash(t, tiny(), 6, 2, 3, "val")
		for name, h := range map[string]string{
			"figure3-again":      figure3Hash(t, tiny(), 6, 2, 3, "val"),
			"figure3-probe":      figure3Hash(t, probed, 6, 2, 3, "val"),
			"figure3-eval-every": figure3Hash(t, evalEvery, 6, 2, 3, "val"),
		} {
			if h != figure3 {
				t.Errorf("%s moved the hash: %s != %s", name, h, figure3)
			}
		}
	})
}

// TestManifestEngineAndBatteryShapeHashed pins the remaining key axes at
// the manifest level: the engine string (the sim and async engines must
// never share cells even for otherwise-identical configs) and battery
// shape fields.
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
// what keys a cell changes; they last moved when a cell's key became the
// config hash its run stamps, which hashes its data by fingerprint. The
// keys from before (older) are no cell's now: the hand-built cell manifest
// that saw no data, and before that cells whose FinalAcc is another
// number — the averaged model's (readout=averaged-model), and before that
// the nodes' mean at T (no readout field) — so no key may equal one of
// them: a build that forgot or misnamed the readout field would serve
// those cells as the new readout.
// TestCellManifestKeyStability above would still pass if every hash moved
// together — this is the test a key-derivation refactor that silently
// orphans those caches fails.
func TestCellKeyGoldenBytes(t *testing.T) {
	older := map[string]bool{
		// the hand-built cell manifest, blind to the data
		"a8a41dabc9da930c33db2c61051df582": true,
		"7d731ab4e1e84925ef39ede9821d12d2": true,
		"5063151408fd3120c055a80fb62dcc03": true,
		"56fd3a96adbd6a734cb4b1149973d0f5": true,
		"ee0461939709d41dd74df278535852bf": true,
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
		{6, 1, 2, 3, "23ba4d006a49f2f9bf14f95047c59e63"},
		{6, 0, 1, 1, "47cf2e34c2037d8f4188d179150cb845"},
		{4, 3, 4, 2, "912bf7162b2e0f8bb0e785dc360420ec"},
		{8, 4, 3, 4, "d611b46cc2e1d3788698ecb7362a9113"},
		{6, 2, 4, 4, "fcbf14d027179e214180f2b4bae9f2ac"},
	} {
		h := cellHash(t, tiny(), g.degree, g.regime, g.gt, g.gs)
		if older[h] {
			t.Errorf("degree %d regime %d Γt=%d Γs=%d: ConfigHash %s is an older key", g.degree, g.regime, g.gt, g.gs, h)
		}
		if h != g.hash {
			t.Errorf("degree %d regime %d Γt=%d Γs=%d: ConfigHash %s, golden %s", g.degree, g.regime, g.gt, g.gs, h, g.hash)
		}
	}
}

// Every cell of keyed TableGammaHarvest and Figure 3 runs is looked up by
// the config hash its run stamps — tuneRun refuses a run whose stamp
// differs, and the keys are the hashes the cells' runs, made again, stamp
// — and no two of those keys collide. A grid whose keys were derived off
// another cell's fails.
func TestGridKeysAreStampedHashes(t *testing.T) {
	o := tiny()
	o.Rounds = 8
	store := &keyLog{Store: sweep.NewMemStore(0)}
	o.Sweep = sweep.NewRunner(store, nil)
	if _, err := TableGammaHarvest(o); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure3(o, []int{4, 6}); err != nil {
		t.Fatal(err)
	}
	if n := len(store.keys()); n != 80+32 {
		t.Fatalf("%d distinct keys stored for 80 harvest and 32 Figure 3 cells", n)
	}
	stamped := map[string]bool{} // each cell's run, made again apart from its grid
	for ri := range gammaGridRegimes {
		for gs := 1; gs <= gammaGridMax; gs++ {
			for gt := 1; gt <= gammaGridMax; gt++ {
				stamped[cellHash(t, o, 6, ri, gt, gs)] = true
				if ri < 2 {
					stamped[figure3Hash(t, o, []int{4, 6}[ri], gt, gs, "val")] = true
				}
			}
		}
	}
	for k := range store.keys() {
		if !stamped[k.ConfigHash] {
			t.Errorf("the grid looked a cell up by %s, no cell's stamped config hash", k)
		}
	}

	o.Sweep = sweep.NewRunner(sweep.NewMemStore(0), nil)
	w := newWorld(o.Defaults(), cifar, 6)
	id, err := w.gridIdentity(gammaGridRegimes[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := &id[0].keys
	keys[0][0], keys[0][1] = keys[0][1], keys[0][0]
	if _, err := w.runRegime(gammaGridRegimes[0], &id[0]); err == nil || !strings.Contains(err.Error(), "stamped config hash") {
		t.Fatalf("a grid with two cells' keys swapped ran: %v", err)
	}
}

// keyLog is a Store that records the keys it was asked to keep.
type keyLog struct {
	sweep.Store
	mu  sync.Mutex
	put map[sweep.CellKey]bool
}

func (l *keyLog) Put(res sweep.CellResult) error {
	l.mu.Lock()
	if l.put == nil {
		l.put = map[sweep.CellKey]bool{}
	}
	l.put[res.Key] = true
	l.mu.Unlock()
	return l.Store.Put(res)
}

func (l *keyLog) keys() map[sweep.CellKey]bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.put
}

// hashedFieldVariants is tiny() (first) and one copy per Options field
// that a cell's run hashes, each differing from tiny() in that field alone.
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
// identity derived fresh for that job — trace names and all
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
		got, err := newWorld(o, cifar, degree).gridIdentity(GammaGridRegimes(o), memo)
		if err != nil {
			t.Fatal(err)
		}
		if held != nil {
			if &got[0] != &held[0] {
				t.Fatalf("step %d: the memo held an identity and the world derived another", step)
			}
			served++
		}
		fresh, err := newWorld(o, cifar, degree).gridIdentity(GammaGridRegimes(o), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, fresh) {
			t.Fatalf("step %d: served identity differs from the fresh one:\n%+v\n%+v", step, got, fresh)
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
	if _, err := newWorld(base, cifar, 6).gridIdentity(GammaGridRegimes(base), memo); err != nil {
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
	if _, err := newWorld(unkeyed, cifar, 6).gridIdentity(GammaGridRegimes(unkeyed), memo); err != nil {
		t.Fatal(err)
	}
	if _, err := newWorld(base, cifar, 17).gridIdentity(GammaGridRegimes(base), memo); err == nil {
		t.Fatal("a 17-regular graph on 16 nodes built")
	}
	if len(memo.m) != 0 {
		t.Fatalf("memo holds %d entries after an unkeyed grid and a failed world", len(memo.m))
	}
}

// A run's config hash sees its data: runs that differ in exactly one data
// knob — Noise, TrainPerNode, TestSamples, the dataset, or the split they
// are scored on — stamp pairwise different hashes, and runs that differ
// only in what cannot change their bits — a probe, a sweep runner,
// GOMAXPROCS — share one.
func TestRunIdentitySeesData(t *testing.T) {
	stamp := func(o Options, ds datasetSpec, split string) string {
		t.Helper()
		o.Rounds = 4
		return stampedHash(t, newWorld(o.Defaults(), ds, 6), core.SkipTrain(core.Gamma{GammaTrain: 2, GammaSync: 2}), GammaRegime{}, split, o.Probe)
	}
	noise, train, test := tiny(), tiny(), tiny()
	noise.Noise = 4
	train.TrainPerNode = 80
	test.TestSamples *= 2
	distinct := map[string]string{
		"base":           stamp(tiny(), cifar, "val"),
		"noise":          stamp(noise, cifar, "val"),
		"train_per_node": stamp(train, cifar, "val"),
		"test_samples":   stamp(test, cifar, "val"),
		"dataset":        stamp(tiny(), femnist, "val"),
		"split":          stamp(tiny(), cifar, "test"),
	}
	seen := map[string]string{}
	for name, h := range distinct {
		if prev, dup := seen[h]; dup {
			t.Errorf("%s and %s stamp one config hash %s", name, prev, h)
		}
		seen[h] = name
	}

	probed, swept := tiny(), tiny()
	probed.Probe = obs.NewProbe(obstest.NewMemory())
	swept.Sweep = sweep.NewRunner(sweep.NewMemStore(0), nil)
	same := map[string]string{"probe": stamp(probed, cifar, "val"), "sweep": stamp(swept, cifar, "val")}
	old := runtime.GOMAXPROCS(1)
	same["gomaxprocs"] = stamp(tiny(), cifar, "val")
	runtime.GOMAXPROCS(old)
	for name, h := range same {
		if h != distinct["base"] {
			t.Errorf("%s moved the config hash: %s != %s", name, h, distinct["base"])
		}
	}
}

// Two runs that differ only in Noise are different experiments, and the
// diff of their streams says so: HASH DRIFT, with the moved data lines.
func TestNoiseDriftVisibleInStreamDiff(t *testing.T) {
	report := func(noise float64) *analyze.Report {
		o := tiny()
		o.Rounds, o.Noise = 4, noise
		w := newWorld(o.Defaults(), cifar, 6)
		cfg, err := w.Config(core.DPSGD())
		if err != nil {
			t.Fatal(err)
		}
		mem := obstest.NewMemory()
		cfg.Probe = obs.NewProbe(mem)
		if _, err := w.run(cfg); err != nil {
			t.Fatal(err)
		}
		return analyze.FromEvents(mem.Events())
	}
	var text strings.Builder
	analyze.DiffReports(report(2.5), report(4)).WriteText(&text, "noise 2.5", "noise 4")
	for _, want := range []string{"HASH DRIFT", "+partition=", "-partition=", "+test_set=", "-test_set="} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("the diff does not read %q:\n%s", want, text.String())
		}
	}
}

// A world's fingerprints from Options are those its built data carries,
// for both datasets and each of the Options fields the data depends on.
func TestWorldFingerprintsMatchBuiltData(t *testing.T) {
	_, variants := hashedFieldVariants()
	for _, ds := range []datasetSpec{cifar, femnist} {
		for _, o := range variants {
			part, test, err := ds.build(o)
			if err != nil {
				t.Fatal(err)
			}
			if wp, wt := ds.fingerprints(o); wp != part.Fingerprint() || wt != test.Fingerprint() {
				t.Errorf("%s %+v: fingerprints %x %x from Options, %x %x built", ds.name, o, wp, wt, part.Fingerprint(), test.Fingerprint())
			}
		}
	}
}

// A keyed grid whose cells all hit never builds its world's data, whether
// it derives its keys or a memo serves them: deriving a key builds none.
func TestWarmKeyedGridBuildsNoData(t *testing.T) {
	o := tiny()
	o.Rounds = 8
	o = o.Defaults()
	builds := 0
	counted := cifar
	counted.build = func(o Options) (dataset.Partition, *dataset.Dataset, error) {
		builds++
		return cifarLikeData(o)
	}
	store, memo := sweep.NewMemStore(0), &identityMemo{}
	for run, m := range []*identityMemo{nil, nil, memo, memo} { // cold; warm, keys derived; into the memo; from it
		o.Sweep = sweep.NewRunner(store, nil)
		if _, _, err := gammaHarvest(newWorld(o, counted, 6), m); err != nil {
			t.Fatal(err)
		}
		want := 0
		if run == 0 {
			want = 1 // the cold fill computes
		}
		if builds != want || o.Sweep.Stats().AllHits() == (run == 0) {
			t.Fatalf("run %d: %d data builds, stats %+v", run, builds, o.Sweep.Stats())
		}
		builds = 0
	}
}
