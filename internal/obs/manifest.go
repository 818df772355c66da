package obs

import (
	"crypto/sha256"
	"encoding/hex"
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
// they are hashed in — so setting a field formats nothing but its value,
// straight into the buffer. The builder is one allocation: buf and fields
// start as windows of its own arrays, which the engines' manifests fit —
// 26 fields, the widest (a fleet run with a forecaster and a rejoin rule),
// and 720 bytes, above the longest text measured (644, an async fleet run
// with a forecaster).
type ManifestBuilder struct {
	m          RunManifest // the identity fields; Build fills in the rest
	buf        []byte      // the head, then the lines as set
	head       int         // len of the head in buf
	fields     []field     // the lines, buf[start:end] with the '\n', sorted by key
	bufSpace   [720]byte
	fieldSpace [26]field
}

type field struct {
	key        string
	start, end int32 // 24 bytes a field: the builder fits the 1 536-byte size class
}

// NewManifest starts a manifest for one run of the named engine.
func NewManifest(engine, label string, seed uint64) *ManifestBuilder {
	b := &ManifestBuilder{m: RunManifest{Engine: engine, Label: label, Seed: seed}}
	b.buf = append(append(append(b.bufSpace[:0], "engine="...), engine...), "\nseed="...)
	b.buf = append(strconv.AppendUint(b.buf, seed, 10), '\n')
	b.head, b.fields = len(b.buf), b.fieldSpace[:0]
	return b
}

// Scale records the run's node count and horizon (also hashed as config
// fields).
func (b *ManifestBuilder) Scale(nodes, rounds int) *ManifestBuilder {
	b.m.Nodes, b.m.Rounds = nodes, rounds
	return b.SetInt("nodes", nodes).SetInt("rounds", rounds)
}

// Set records one config field. Last write per key wins; keys are sorted
// before hashing, so call order never matters.
func (b *ManifestBuilder) Set(key, value string) *ManifestBuilder {
	return b.put(key, append(b.line(key), value...))
}

// SetInt records one integer config field as fmt's %d writes it.
func (b *ManifestBuilder) SetInt(key string, v int) *ManifestBuilder {
	return b.put(key, strconv.AppendInt(b.line(key), int64(v), 10))
}

// SetFloat records one float config field as fmt's %g writes it.
func (b *ManifestBuilder) SetFloat(key string, v float64) *ManifestBuilder {
	return b.put(key, strconv.AppendFloat(b.line(key), v, 'g', -1, 64))
}

// SetHex records one 64-bit config field as fmt's %016x writes it.
func (b *ManifestBuilder) SetHex(key string, v uint64) *ManifestBuilder {
	line := b.line(key)
	for shift := 60; shift >= 0; shift -= 4 {
		line = append(line, "0123456789abcdef"[v>>shift&15])
	}
	return b.put(key, line)
}

// line starts key's line at the end of buf.
func (b *ManifestBuilder) line(key string) []byte { return append(append(b.buf, key...), '=') }

// put files key's line, the bytes of buf past its old end, in key order. A
// re-set key's new line overwrites its old one when they are as long, so
// re-setting one field over and over — a grid's keys re-set the schedule —
// grows nothing; otherwise the old line stays in buf as dead bytes.
func (b *ManifestBuilder) put(key string, buf []byte) *ManifestBuilder {
	start := len(b.buf)
	b.buf = append(buf, '\n')
	f := field{key, int32(start), int32(len(b.buf))}
	i, ok := slices.BinarySearchFunc(b.fields, key, func(f field, key string) int { return strings.Compare(f.key, key) })
	switch {
	case !ok:
		b.fields = slices.Insert(b.fields, i, f)
	case b.fields[i].end-b.fields[i].start == f.end-f.start:
		copy(b.buf[b.fields[i].start:], b.buf[start:])
		b.buf = b.buf[:start]
	default:
		b.fields[i] = f
	}
	return b
}

// Derive starts the manifest of another engine's work made of b's runs —
// a grid of them — with b's seed, scale and fields, which the caller
// re-sets where the work differs from one run.
func (b *ManifestBuilder) Derive(engine, label string) *ManifestBuilder {
	d := NewManifest(engine, label, b.m.Seed)
	d.m.Nodes, d.m.Rounds = b.m.Nodes, b.m.Rounds
	for _, f := range b.fields {
		start := len(d.buf)
		d.buf = append(d.buf, b.buf[f.start:f.end]...)
		d.fields = append(d.fields, field{f.key, int32(start), int32(len(d.buf))})
	}
	return d
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
	var digest [32]byte
	return string(b.digest(digest[:0]))
}

// digest appends the 32 hex digits of the hashed text's digest to dst.
func (b *ManifestBuilder) digest(dst []byte) []byte {
	sum := sha256.Sum256(b.config(make([]byte, 0, 1024)))
	return hex.AppendEncode(dst, sum[:16])
}

// Build finalizes the manifest: hashes the sorted fields with the engine
// name and seed, and stamps the build identity. The digest and the lines
// are substrings of one string.
func (b *ManifestBuilder) Build() RunManifest {
	m := b.m
	text := string(b.config(b.digest(make([]byte, 0, 1024))))
	m.ConfigHash, m.Config = text[:32], make([]string, len(b.fields))
	lines := text[32+b.head:]
	for i, f := range b.fields {
		n := int(f.end - f.start)
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
