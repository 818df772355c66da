package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
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
// Every "key=value\n" line is appended to one buffer after the hashed head,
// "engine=…\nseed=…\n"; fields indexes the lines in key order — the order
// they are hashed in — so setting a field formats nothing but its value.
type ManifestBuilder struct {
	m      RunManifest // the identity fields; Build fills in the rest
	buf    []byte      // the head, then the lines as set
	head   int         // len of the head in buf
	fields []field     // the lines, buf[start:end] with the '\n', sorted by key
}

type field struct {
	key        string
	start, end int
}

// NewManifest starts a manifest for one run of the named engine.
func NewManifest(engine, label string, seed uint64) *ManifestBuilder {
	b := &ManifestBuilder{m: RunManifest{Engine: engine, Label: label, Seed: seed}}
	b.buf = append(append(make([]byte, 0, 768), "engine="...), engine...) // the engines' manifests fit
	b.buf = append(strconv.AppendUint(append(b.buf, "\nseed="...), seed, 10), '\n')
	b.head, b.fields = len(b.buf), make([]field, 0, 24)
	return b
}

// Scale records the run's node count and horizon (also hashed as config
// fields).
func (b *ManifestBuilder) Scale(nodes, rounds int) *ManifestBuilder {
	b.m.Nodes, b.m.Rounds = nodes, rounds
	return b.Set("nodes", strconv.Itoa(nodes)).Set("rounds", strconv.Itoa(rounds))
}

// Set records one config field. Last write per key wins; keys are sorted
// before hashing, so call order never matters.
func (b *ManifestBuilder) Set(key, value string) *ManifestBuilder {
	return b.put(key, len(b.buf), append(append(append(b.buf, key...), '='), value...))
}

// Setf records one config field with fmt formatting.
func (b *ManifestBuilder) Setf(key, format string, args ...any) *ManifestBuilder {
	return b.put(key, len(b.buf), fmt.Appendf(append(append(b.buf, key...), '='), format, args...))
}

// put files key's line, appended to buf from start, in key order; a re-set
// key's old line stays in buf as dead bytes.
func (b *ManifestBuilder) put(key string, start int, buf []byte) *ManifestBuilder {
	b.buf = append(buf, '\n')
	f := field{key, start, len(b.buf)}
	if i, ok := slices.BinarySearchFunc(b.fields, key, func(f field, key string) int { return strings.Compare(f.key, key) }); ok {
		b.fields[i] = f
	} else {
		b.fields = slices.Insert(b.fields, i, f)
	}
	return b
}

// config appends the hashed text to dst: the head, then the lines by key.
func (b *ManifestBuilder) config(dst []byte) []byte {
	dst = append(dst, b.buf[:b.head]...)
	for _, f := range b.fields {
		dst = append(dst, b.buf[f.start:f.end]...)
	}
	return dst
}

// ConfigHash is Build().ConfigHash with no manifest built around it — all
// a cache lookup needs: the digest of head and the "key=value\n" lines.
func (b *ManifestBuilder) ConfigHash() string {
	sum := sha256.Sum256(b.config(make([]byte, 0, 1024)))
	var digest [32]byte
	hex.Encode(digest[:], sum[:16])
	return string(digest[:])
}

// Build finalizes the manifest: hashes the sorted fields with the engine
// name and seed, and stamps the build identity.
func (b *ManifestBuilder) Build() RunManifest {
	m := b.m
	m.ConfigHash, m.Config = b.ConfigHash(), make([]string, len(b.fields))
	lines := string(b.config(make([]byte, 0, 1024))[b.head:])
	for i, f := range b.fields {
		n := f.end - f.start
		m.Config[i], lines = lines[:n-1], lines[n:]
	}
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
