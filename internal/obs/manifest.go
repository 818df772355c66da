package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
)

// RunManifest is a run's content-addressable identity: everything needed
// to decide whether two runs computed the same thing. ConfigHash is a
// stable digest of the configuration fields plus the seed — independent of
// GOMAXPROCS, wall clock, and host — so (ConfigHash, GitRevision) is the
// cache key of the memoized sweep service: same config, same seed, same
// code ⇒ same bits, because every engine is pinned bit-reproducible.
//
// Engines stamp a manifest into every Result whether or not telemetry is
// on; probes additionally emit it on the run_start event.
type RunManifest struct {
	// Engine names the producing engine: "sim", "async", "gammagrid".
	Engine string `json:"engine"`
	// Label is the run's human label (the algorithm or regime name).
	Label string `json:"label,omitempty"`
	// Seed is the experiment seed (hashed into ConfigHash).
	Seed uint64 `json:"seed"`
	// Nodes and Rounds echo the run scale for quick inspection; both are
	// also config fields and hashed.
	Nodes  int `json:"nodes,omitempty"`
	Rounds int `json:"rounds,omitempty"`
	// ConfigHash is the hex digest over Engine, Seed, and the sorted
	// Config fields.
	ConfigHash string `json:"config_hash"`
	// Config lists the hashed fields as sorted "key=value" strings, so a
	// hash mismatch is diffable by eye.
	Config []string `json:"config"`
	// GoVersion and GitRevision identify the code: the third component of
	// the cache key. GitRevision is empty when the binary was built
	// without VCS stamping (plain `go test` in a work tree).
	GoVersion   string `json:"go_version"`
	GitRevision string `json:"git_revision,omitempty"`
	// GOMAXPROCS records the worker width of this run. It is NOT hashed:
	// results are bit-identical at any width, so it must not split the
	// cache.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// ManifestBuilder accumulates config fields and derives the stable hash.
// Fields are kept as "key=value" lines in key order — the order they are
// hashed in — so re-setting a field and hashing again formats nothing else.
type ManifestBuilder struct {
	m           RunManifest // the identity fields; Build fills in the rest
	head        string      // "engine=…\nseed=…\n", hashed first
	keys, lines []string    // parallel; lines[i] = keys[i] + "=" + value
}

// NewManifest starts a manifest for one run of the named engine.
func NewManifest(engine, label string, seed uint64) *ManifestBuilder {
	b := &ManifestBuilder{m: RunManifest{Engine: engine, Label: label, Seed: seed}}
	b.head = fmt.Sprintf("engine=%s\nseed=%d\n", engine, seed)
	b.keys, b.lines = make([]string, 0, 24), make([]string, 0, 24) // the engines' manifests fit
	return b
}

// Scale records the run's node count and horizon (also hashed as config
// fields).
func (b *ManifestBuilder) Scale(nodes, rounds int) *ManifestBuilder {
	b.m.Nodes, b.m.Rounds = nodes, rounds
	b.Set("nodes", strconv.Itoa(nodes))
	b.Set("rounds", strconv.Itoa(rounds))
	return b
}

// Set records one config field. Last write per key wins; keys are sorted
// before hashing, so call order never matters.
func (b *ManifestBuilder) Set(key, value string) *ManifestBuilder {
	i, ok := slices.BinarySearch(b.keys, key)
	if !ok {
		b.keys = slices.Insert(b.keys, i, key)
		b.lines = slices.Insert(b.lines, i, "")
	}
	b.lines[i] = key + "=" + value
	return b
}

// Setf records one config field with fmt formatting.
func (b *ManifestBuilder) Setf(key, format string, args ...any) *ManifestBuilder {
	return b.Set(key, fmt.Sprintf(format, args...))
}

// ConfigHash is Build().ConfigHash with no manifest built around it — all
// a cache lookup needs: the digest of head and the "key=value\n" lines.
func (b *ManifestBuilder) ConfigHash() string {
	buf := append(make([]byte, 0, 512), b.head...)
	for _, line := range b.lines {
		buf = append(append(buf, line...), '\n')
	}
	sum := sha256.Sum256(buf)
	var digest [32]byte
	hex.Encode(digest[:], sum[:16])
	return string(digest[:])
}

// Build finalizes the manifest: hashes the sorted fields with the engine
// name and seed, and stamps the build identity.
func (b *ManifestBuilder) Build() RunManifest {
	m := b.m
	m.ConfigHash = b.ConfigHash()
	m.Config = append([]string{}, b.lines...)
	m.GoVersion = runtime.Version()
	m.GitRevision = gitRevision()
	m.GOMAXPROCS = runtime.GOMAXPROCS(0)
	return m
}

// GitRevision is the VCS revision the binary was built from, "" when the
// toolchain stamped none. Build info is fixed per process: parsed once.
func GitRevision() string { return gitRevision() }

var gitRevision = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+dirty"
	}
	return rev
})
