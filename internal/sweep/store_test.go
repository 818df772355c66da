package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func mustKey(seed uint64, extra string) CellKey {
	b := obs.NewManifest("testcell", "", seed).Scale(4, 8)
	if extra != "" {
		b.Set("extra", extra)
	}
	return KeyFromBuilder(b)
}

func TestKeyFromBuilder(t *testing.T) {
	b := obs.NewManifest("testcell", "label ignored", 1).Scale(4, 8)
	k, m := KeyFromBuilder(b), b.Build()
	if k.ConfigHash != m.ConfigHash {
		t.Fatalf("key hash %q, manifest hash %q", k.ConfigHash, m.ConfigHash)
	}
	if k.Revision != m.GitRevision {
		t.Fatalf("key revision %q, manifest revision %q", k.Revision, m.GitRevision)
	}
	if !k.Valid() {
		t.Fatal("manifest-derived key must be valid")
	}
	if (CellKey{}).Valid() {
		t.Fatal("zero key must be invalid")
	}
	if mustKey(1, "") == mustKey(2, "") {
		t.Fatal("different seeds must derive different keys")
	}
}

func TestKeyFileNameSafe(t *testing.T) {
	hostile := CellKey{ConfigHash: "../../etc/passwd", Revision: "abc+dirty"}
	name := hostile.fileName()
	if strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		t.Fatalf("hostile key mapped to unsafe file name %q", name)
	}
	honest := mustKey(1, "").fileName()
	if !strings.Contains(honest, mustKey(1, "").ConfigHash) {
		t.Fatalf("hex hash should embed verbatim, got %q", honest)
	}
	// Same hash, different revision -> different files (the invalidation
	// axis is structural, not destructive).
	a := CellKey{ConfigHash: "ab12", Revision: "rev-a"}
	b := CellKey{ConfigHash: "ab12", Revision: "rev-b"}
	if a.fileName() == b.fileName() {
		t.Fatal("revisions must not collide on disk")
	}
}

func storeContract(t *testing.T, s Store) {
	t.Helper()
	k := mustKey(7, "contract")
	if _, ok, err := s.Get(k); ok || err != nil {
		t.Fatalf("empty store Get = ok=%v err=%v", ok, err)
	}
	payload := json.RawMessage(`{"acc":0.75,"wasted":0.125}`)
	if err := s.Put(CellResult{Key: k, Payload: payload, ElapsedNs: 12345}); err != nil {
		t.Fatal(err)
	}
	res, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get after Put = ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(res.Payload, payload) || res.ElapsedNs != 12345 || res.Key != k {
		t.Fatalf("stored entry corrupted: %+v", res)
	}
	// A different revision of the same config is a distinct entry.
	other := k
	other.Revision = "f00d" + k.Revision
	if _, ok, _ := s.Get(other); ok {
		t.Fatal("revision change must miss")
	}
	if err := s.Put(CellResult{Payload: payload}); err == nil {
		t.Fatal("storing an invalid key must error")
	}
}

func TestMemStoreContract(t *testing.T)  { storeContract(t, NewMemStore(0)) }
func TestFileStoreContract(t *testing.T) { storeContract(t, newFileStore(t)) }
func TestTieredContract(t *testing.T)    { storeContract(t, Tiered(NewMemStore(4), newFileStore(t))) }

func newFileStore(t *testing.T) *FileStore {
	t.Helper()
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "cells"))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestMemStoreLRUEviction(t *testing.T) {
	s := NewMemStore(2)
	k1, k2, k3 := mustKey(1, "lru"), mustKey(2, "lru"), mustKey(3, "lru")
	for _, k := range []CellKey{k1, k2} {
		if err := s.Put(CellResult{Key: k, Payload: json.RawMessage(`1`)}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k1 so k2 is the LRU victim.
	if _, ok, _ := s.Get(k1); !ok {
		t.Fatal("k1 missing")
	}
	if err := s.Put(CellResult{Key: k3, Payload: json.RawMessage(`3`)}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	if _, ok, _ := s.Get(k2); ok {
		t.Fatal("k2 should have been evicted")
	}
	for _, k := range []CellKey{k1, k3} {
		if _, ok, _ := s.Get(k); !ok {
			t.Fatalf("%s evicted wrongly", k)
		}
	}
}

func TestFileStoreAtomicAndRestartable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := mustKey(9, "durable")
	if err := fs.Put(CellResult{Key: k, Payload: json.RawMessage(`{"v":1}`)}); err != nil {
		t.Fatal(err)
	}
	// No temp files linger after a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d files in store dir, want 1", len(entries))
	}
	// A fresh store over the same dir (daemon restart) still serves it.
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := fs2.Get(k); !ok || err != nil {
		t.Fatalf("restarted store Get = ok=%v err=%v", ok, err)
	}
	// Corrupt entries read as plain misses, never as wrong data and never
	// as an error every later request for the key would hit again: the
	// file is set aside and the key can be rewritten and served.
	path := filepath.Join(dir, k.fileName())
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := fs2.Get(k); ok || err != nil {
		t.Fatalf("corrupt entry Get = ok=%v err=%v, want a miss", ok, err)
	}
	if b, err := os.ReadFile(path + ".corrupt"); err != nil || string(b) != "{not json" {
		t.Fatalf("corrupt file not set aside: %q, %v", b, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still in place: %v", err)
	}
	if err := fs2.Put(CellResult{Key: k, Payload: json.RawMessage(`{"v":2}`)}); err != nil {
		t.Fatal(err)
	}
	if res, ok, err := fs2.Get(k); !ok || err != nil || string(res.Payload) != `{"v":2}` {
		t.Fatalf("rewritten entry Get = %s ok=%v err=%v", res.Payload, ok, err)
	}
}

func TestTieredPromotesDiskHits(t *testing.T) {
	mem := NewMemStore(8)
	disk := newFileStore(t)
	k := mustKey(4, "promote")
	if err := disk.Put(CellResult{Key: k, Payload: json.RawMessage(`{"v":4}`)}); err != nil {
		t.Fatal(err)
	}
	ts := Tiered(mem, disk)
	if _, ok, err := ts.Get(k); !ok || err != nil {
		t.Fatalf("tiered Get = ok=%v err=%v", ok, err)
	}
	if _, ok, _ := mem.Get(k); !ok {
		t.Fatal("disk hit was not promoted into mem")
	}
}

// keep attaches a value only to the bytes it was decoded from: a decode
// that raced a Put of new bytes, or outlived its entry, keeps nothing.
func TestKeepChecksTheBytes(t *testing.T) {
	for name, store := range map[string]Store{"memory": NewMemStore(0), "tiered": Tiered(NewMemStore(0), newFileStore(t))} {
		k := mustKey(1, "keep")
		replaced, current := json.RawMessage(`1`), json.RawMessage(`2`)
		if err := store.Put(CellResult{Key: k, Payload: current}); err != nil {
			t.Fatal(err)
		}
		keeper := store.(valueKeeper)
		keeper.keep(k, replaced, 1)
		if res, _, _ := store.Get(k); res.value != nil {
			t.Errorf("%s: a value decoded from replaced bytes was kept: %v", name, res.value)
		}
		keeper.keep(mustKey(2, "keep"), current, 2) // no such entry
		keeper.keep(k, current, 2)
		if res, _, _ := store.Get(k); res.value != 2 {
			t.Errorf("%s: kept value %v, want 2", name, res.value)
		}
		res, _, _ := store.Get(k)
		res.Payload = replaced
		if err := store.Put(res); err != nil { // a Put never brings a value in with it
			t.Fatal(err)
		}
		if res, _, _ := store.Get(k); res.value != nil || string(res.Payload) != "1" {
			t.Errorf("%s: a Put carried a value in: %+v", name, res)
		}
	}
}
