package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func buildTestManifest(seed uint64) RunManifest {
	return NewManifest("sim", "test", seed).
		Scale(48, 64).
		Set("lr", "0.2").
		Set("policy", "threshold").
		Build()
}

func TestManifestHashStable(t *testing.T) {
	a, b := buildTestManifest(42), buildTestManifest(42)
	if a.ConfigHash != b.ConfigHash {
		t.Fatalf("same config hashed differently: %s vs %s", a.ConfigHash, b.ConfigHash)
	}
	if a.ConfigHash == "" {
		t.Fatal("empty config hash")
	}
}

func TestManifestHashOrderInsensitive(t *testing.T) {
	a := NewManifest("sim", "", 1).Set("x", "1").Set("y", "2").Build()
	b := NewManifest("sim", "", 1).Set("y", "2").Set("x", "1").Build()
	if a.ConfigHash != b.ConfigHash {
		t.Fatalf("field order changed the hash: %s vs %s", a.ConfigHash, b.ConfigHash)
	}
}

func TestManifestHashSensitivity(t *testing.T) {
	base := buildTestManifest(42)
	if m := buildTestManifest(43); m.ConfigHash == base.ConfigHash {
		t.Fatal("seed change did not change the hash")
	}
	changed := NewManifest("sim", "test", 42).
		Scale(48, 64).
		Set("lr", "0.3").
		Set("policy", "threshold").
		Build()
	if changed.ConfigHash == base.ConfigHash {
		t.Fatal("field change did not change the hash")
	}
	engine := NewManifest("async", "test", 42).
		Scale(48, 64).
		Set("lr", "0.2").
		Set("policy", "threshold").
		Build()
	if engine.ConfigHash == base.ConfigHash {
		t.Fatal("engine change did not change the hash")
	}
	// Label is presentation, not configuration.
	labeled := NewManifest("sim", "other-label", 42).
		Scale(48, 64).
		Set("lr", "0.2").
		Set("policy", "threshold").
		Build()
	if labeled.ConfigHash != base.ConfigHash {
		t.Fatal("label change altered the hash")
	}
}

// GOMAXPROCS is recorded but must never be hashed: results are
// bit-identical at any width, so equal configs must share a cache key.
func TestManifestHashIgnoresGOMAXPROCS(t *testing.T) {
	a := buildTestManifest(42)
	old := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(old)
	b := buildTestManifest(42)
	if a.ConfigHash != b.ConfigHash {
		t.Fatal("GOMAXPROCS leaked into the config hash")
	}
	if b.GOMAXPROCS != 3 {
		t.Fatalf("GOMAXPROCS not recorded: %d", b.GOMAXPROCS)
	}
}

// eighteenFields is a builder of the sweep cell manifest's shape: Scale's
// two fields plus sixteen more.
func eighteenFields() *ManifestBuilder {
	b := NewManifest("gammacell", "markov-lo", 7).Scale(16, 20)
	for i, k := range []string{"regime", "trace", "graph", "gamma_train", "gamma_sync", "lr", "batch",
		"local_steps", "train_per_node", "test_samples", "noise", "eval_subsample", "policy", "min_soc",
		"fleet_capacity_rounds", "fleet_initial_soc"} {
		b.Set(k, "v"+strconv.Itoa(i))
	}
	return b
}

// Setting a field formats into the builder's one buffer: NewManifest, Scale
// and sixteen Set/SetInt/SetFloat/SetHex calls allocate as often as
// NewManifest and Scale alone, once: the builder, with its buffer and its
// index inside it, at any node count.
func TestManifestSetAllocsIndependentOfFields(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	keys := []string{"regime", "trace", "graph", "gamma_train", "gamma_sync", "lr", "batch",
		"local_steps", "train_per_node", "test_samples", "noise", "eval_subsample", "policy", "min_soc",
		"fleet_capacity_rounds", "fleet_initial_soc"}
	allocs := func(fields int) float64 {
		return testing.AllocsPerRun(50, func() {
			b := NewManifest("gammacell", "markov-lo", 7).Scale(300, 1000)
			for i, k := range keys[:fields] {
				switch i % 4 {
				case 0:
					b.SetInt(k, 1000+i)
				case 1:
					b.SetHex(k, 0xfedcba9876543210+uint64(i))
				case 2:
					b.SetFloat(k, 0.1*float64(i))
				default:
					b.Set(k, "value")
				}
			}
			b.Set("gamma_train", "3")
		})
	}
	base := allocs(0)
	for _, n := range []int{1, 8, 16} {
		if got := allocs(n); got != base {
			t.Fatalf("%d more fields: %v allocations, %v with none", n, got, base)
		}
	}
	if base != 1 {
		t.Fatalf("NewManifest and Scale allocate %v times, want 1", base)
	}
}

// The typed setters write exactly the bytes fmt's verbs did, so every
// ConfigHash they feed, and every cache key, holds.
func TestTypedSettersMatchFmt(t *testing.T) {
	line := func(b *ManifestBuilder) string { return b.Build().Config[2] } // after nodes and rounds
	start := func() *ManifestBuilder { return NewManifest("sim", "", 1).Scale(1, 1) }
	for _, v := range []int{0, 7, 255, 256, 300, -1, -4096, math.MaxInt64, math.MinInt64} {
		if got, want := line(start().SetInt("v", v)), fmt.Sprintf("v=%d", v); got != want {
			t.Errorf("SetInt(%d) wrote %q, %%d %q", v, got, want)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 0.05, 2.5, 1e21, 1e-7, 123456789, 1.0 / 3, -0.75,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		if got, want := line(start().SetFloat("v", v)), fmt.Sprintf("v=%g", v); got != want {
			t.Errorf("SetFloat(%v) wrote %q, %%g %q", v, got, want)
		}
	}
	for _, v := range []uint64{0, 1, 0xabc, 0x0123456789abcdef, math.MaxUint64} {
		if got, want := line(start().SetHex("v", v)), fmt.Sprintf("v=%016x", v); got != want {
			t.Errorf("SetHex(%#x) wrote %q, %%016x %q", v, got, want)
		}
	}
}

// ConfigHash is pinned to its documented input — "engine=…\nseed=…\n",
// then the "key=value\n" lines sorted by key — by hashing that text here
// with nothing shared with the builder, and to a literal recorded before
// the builder stopped using a map and fmt.Fprintf. On-disk sweep caches
// are addressed by these bytes.
func TestManifestConfigHashFormat(t *testing.T) {
	b := eighteenFields()
	m := b.Build()
	if len(m.Config) != 18 || !sort.StringsAreSorted(m.Config) {
		t.Fatalf("Config not the 18 sorted fields: %q", m.Config)
	}
	text := "engine=gammacell\nseed=7\n" + strings.Join(m.Config, "\n") + "\n"
	sum := sha256.Sum256([]byte(text))
	if want := hex.EncodeToString(sum[:16]); m.ConfigHash != want || b.ConfigHash() != want {
		t.Fatalf("ConfigHash %s (Build) / %s (ConfigHash), documented format hashes to %s", m.ConfigHash, b.ConfigHash(), want)
	}
	if want := "63976bcd2bc51c789ffc7bb2ccdc55f7"; m.ConfigHash != want {
		t.Fatalf("ConfigHash %s, the parent commit's builder gave %s", m.ConfigHash, want)
	}
	// Sorting is by key, not by line: '-' sorts before '=' but "a" before "a-b".
	if got := NewManifest("e", "", 1).Set("a-b", "2").Set("a", "1").Build().Config; got[0] != "a=1" || got[1] != "a-b=2" {
		t.Fatalf("fields sorted by line, not by key: %q", got)
	}
	// Re-setting a field replaces its line in place.
	if h := b.Set("gamma_sync", "other").ConfigHash(); h == m.ConfigHash {
		t.Fatal("re-set field did not move the hash")
	}
	if h := b.Set("gamma_sync", "v4").ConfigHash(); h != m.ConfigHash {
		t.Fatalf("restoring the field gave %s, want %s", h, m.ConfigHash)
	}
	if empty := NewManifest("e", "", 1).Build(); empty.Config == nil {
		t.Fatal("a field-less manifest must still encode config as [], not null")
	}
}

// widest is a builder of the widest manifest an engine stamps — a sim
// fleet run with a forecaster and a rejoin rule, 26 fields — with 660
// bytes of text, more than the longest measured (644, an async fleet run
// with a forecaster).
func widest() *ManifestBuilder {
	const long = "noisy-oracle(sigma=0.25,markov(on=0.000712,p10=0.45,p01=0.15))"
	b := NewManifest("sim", "diurnal/oracle-mpc", 42).Scale(256, 1000)
	for _, k := range []string{"aggregation", "batch", "devices", "drop_dead", "eval_every", "eval_global",
		"eval_subsample", "graph", "local_steps", "lr", "params", "partition", "test_set", "policy",
		"readout", "schedule", "fleet_capacity_wh", "fleet_cutoff_wh", "fleet_overhead_wh", "fleet_initial_wh",
		"forecast_horizon", "rejoin"} {
		b.Set(k, "0.012345678")
	}
	return b.Set("forecast", long).Set("trace", long[24:])
}

// The VCS revision is read once per process: two Builds agree with each
// other and with GitRevision, and a Build no longer pays for a
// debug.ParseBuildInfo — measured 2 allocations on the widest builder
// (the Config slice and the digest string, hex-encoded on the stack),
// against 50 when every Build re-parsed the build info. The widest
// manifest fits the builder's own arrays: building it is one allocation,
// the builder, in the 1 536-byte size class.
func TestManifestRevisionReadOnce(t *testing.T) {
	b := widest()
	if m := b.Build(); len(m.Config) != 26 || len(b.config(nil)) < 660 {
		t.Fatalf("widest builder has %d fields and %d bytes of text", len(m.Config), len(b.config(nil)))
	}
	if a, c := b.Build(), b.Build(); a.GitRevision != c.GitRevision || a.GitRevision != GitRevision() {
		t.Fatalf("revision moved between Builds: %q, %q, GitRevision() %q", a.GitRevision, c.GitRevision, GitRevision())
	}
	if n := testing.AllocsPerRun(100, func() { _ = b.Build() }); n > 4 {
		t.Fatalf("Build allocates %v times, budget 4", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = b.ConfigHash() }); n > 1 {
		t.Fatalf("ConfigHash allocates %v times, budget 1 (the digest string)", n)
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { widest() }); n != 1 || unsafe.Sizeof(ManifestBuilder{}) != 1536 {
		t.Fatalf("the widest manifest takes %v allocations, a builder of %d bytes", n, unsafe.Sizeof(ManifestBuilder{}))
	}
}

// A re-set field of its old length overwrites its line, so re-setting one
// field sixteen times, as a grid's keys re-set the schedule, grows the
// buffer by the first re-set's line alone, and each hashes as a builder
// that set its value once; Derive copies every
// field under another engine.
func TestManifestResetAndDerive(t *testing.T) {
	b := widest()
	size := len(b.buf)
	for gt := 1; gt <= 4; gt++ {
		for gs := 1; gs <= 4; gs++ {
			b.Set("schedule", "skiptrain("+strconv.Itoa(gt)+","+strconv.Itoa(gs)+")")
			if want := widest().Set("schedule", "skiptrain("+strconv.Itoa(gt)+","+strconv.Itoa(gs)+")").ConfigHash(); b.ConfigHash() != want {
				t.Fatalf("Γ (%d, %d): re-set hash %s, set-once hash %s", gt, gs, b.ConfigHash(), want)
			}
		}
	}
	if grown := len(b.buf) - size; grown != len("schedule=skiptrain(1,1)\n") {
		t.Fatalf("sixteen re-sets grew the buffer by %d bytes, the first one's line", grown)
	}
	d := b.Derive("gammagrid", "grid").Build()
	if m := b.Build(); d.Engine != "gammagrid" || !slices.Equal(d.Config, m.Config) || d.ConfigHash == m.ConfigHash || d.Nodes != m.Nodes {
		t.Fatalf("derived manifest %+v of %+v", d, m)
	}
}
