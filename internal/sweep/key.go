// Package sweep is the memoized cell scheduler: grid experiments submit
// cells content-addressed by their obs.RunManifest hash, cached results
// are served instantly (a cell's bytes are the contract; the memory tier
// also keeps the value decoded from them, so a hit is a copy), uncached
// cells fan out across a bounded internal/par pool, and per-cell progress
// streams through internal/obs sinks. The cache is a directory: a
// FileStore writes each cell through a temporary file and a rename, so
// any number of processes (gridsearch -cache DIR) may share one, and a
// corrupt cell file reads as a miss and is recomputed.
//
// Server, Client, Dial and the protocol serve the same scheduler over the
// internal/transport wire. They are kept only for the benchmark's
// sweepd_warm workload (bench/sweepd.go), until ROADMAP item 1(b) replaces
// that workload and item 15 deletes them.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/obs"
)

// CellKey is the cache identity of one sweep cell:
// RunManifest.ConfigHash × GitRevision of the manifest the cell's run
// stamps. The config hash folds in the engine name, seed and the fields
// the engine hashes — the data among them, by the partition's and test
// set's fingerprints — and deliberately excludes GOMAXPROCS, labels and
// telemetry state (see obs.RunManifest); the revision ties the entry to
// the code that computed it, so a rebuild from different sources never
// serves stale bits.
type CellKey struct {
	ConfigHash string `json:"config_hash"`
	// Revision is the VCS revision of the computing binary. Empty when the
	// build carries no VCS stamp (plain `go test` in a work tree) — such
	// keys still cache, but only against equally unstamped builds, which is
	// exactly the safe interpretation of "unknown code version".
	Revision string `json:"revision,omitempty"`
}

// KeyFromBuilder derives the cache key of the run a manifest builder
// describes: b.Build()'s config hash and git revision, hashed off the
// builder's fields with no manifest materialised.
func KeyFromBuilder(b *obs.ManifestBuilder) CellKey {
	return CellKey{ConfigHash: b.ConfigHash(), Revision: obs.GitRevision()}
}

// Valid reports whether the key can address a cache entry. A zero key
// (no config hash) marks a cell as uncacheable; the scheduler computes it
// fresh every time.
func (k CellKey) Valid() bool { return k.ConfigHash != "" }

// String renders the key for logs and progress events.
func (k CellKey) String() string {
	if k.Revision == "" {
		return k.ConfigHash
	}
	rev := k.Revision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return k.ConfigHash + "@" + rev
}

// fileName maps the key to a flat file name for the on-disk store. Config
// hashes are hex and embed verbatim; anything else (a hostile or corrupt
// key arriving over the wire) is digested first so a key can never escape
// the store directory. Revisions digest unconditionally — "abc123+dirty"
// is not a safe path component.
func (k CellKey) fileName() string {
	hash := k.ConfigHash
	if len(hash) > 64 || !isLowerHex(hash) {
		sum := sha256.Sum256([]byte(hash))
		hash = hex.EncodeToString(sum[:16])
	}
	rev := "norev"
	if k.Revision != "" {
		sum := sha256.Sum256([]byte(k.Revision))
		rev = hex.EncodeToString(sum[:6])
	}
	return fmt.Sprintf("cell-%s-%s.json", hash, rev)
}

func isLowerHex(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
