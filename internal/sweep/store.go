package sweep

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// CellResult is one cached cell: the key that addresses it, the
// JSON-encoded cell value, and the wall clock the original computation
// took (telemetry only — not part of the identity). Payload bytes are
// stored and served verbatim, which is what makes a cache hit
// byte-identical to the compute that produced it.
//
// value is what Grid decoded from Payload, kept by the memory tier alone
// to spare the next hit the decode; it is never encoded, sent or compared.
type CellResult struct {
	Key       CellKey         `json:"key"`
	Payload   json.RawMessage `json:"payload"`
	ElapsedNs int64           `json:"elapsed_ns,omitempty"`
	value     any
}

// Store is a cell cache. Implementations must be safe for concurrent use;
// Get returns ok=false for absent keys without error.
type Store interface {
	Get(k CellKey) (CellResult, bool, error)
	Put(res CellResult) error
}

// valueKeeper is the memory tier as Grid uses it: keep attaches the value
// decoded from payload to k's entry, unless its bytes are no longer those.
type valueKeeper interface {
	keep(k CellKey, payload []byte, v any)
}

// MemStore is an in-memory LRU Store. capacity <= 0 means unbounded. A
// kept value lives and dies with the bytes it was decoded from: Put
// replaces the entry, eviction drops it, and capacity bounds both.
type MemStore struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *CellResult
	items    map[CellKey]*list.Element
}

// NewMemStore returns an LRU store holding at most capacity entries
// (unbounded when capacity <= 0).
func NewMemStore(capacity int) *MemStore {
	return &MemStore{capacity: capacity, order: list.New(), items: map[CellKey]*list.Element{}}
}

// Get returns the cached result and refreshes its recency.
func (s *MemStore) Get(k CellKey) (CellResult, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		return CellResult{}, false, nil
	}
	s.order.MoveToFront(el)
	return *el.Value.(*CellResult), true, nil
}

// Put inserts or refreshes an entry, evicting the least recently used
// entry when over capacity.
func (s *MemStore) Put(res CellResult) error {
	if !res.Key.Valid() {
		return fmt.Errorf("sweep: cannot store invalid key")
	}
	res.value = nil // a value enters through keep alone, checked against the bytes
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[res.Key]; ok {
		el.Value = &res
		s.order.MoveToFront(el)
		return nil
	}
	s.items[res.Key] = s.order.PushFront(&res)
	if s.capacity > 0 && s.order.Len() > s.capacity {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*CellResult).Key)
	}
	return nil
}

func (s *MemStore) keep(k CellKey, payload []byte, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		if res := el.Value.(*CellResult); bytes.Equal(res.Payload, payload) {
			res.value = v
		}
	}
}

// Len reports the number of cached entries.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// FileStore is a durable Store: one JSON document per cell under dir,
// written atomically (temp file + rename) so a crash mid-write leaves
// either the old entry or none, and any number of processes can share
// one dir. Entries persist across processes; invalidation is structural —
// a new code revision derives new keys, it never rewrites old entries.
type FileStore struct {
	dir string
}

// NewFileStore roots a file store at dir, creating it if needed.
func NewFileStore(dir string) (*FileStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: create store dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// Get loads the entry for k, verifying the stored key actually matches
// (file names for non-hex keys are digests, so distinct keys could share
// a name; a mismatch reads as a miss, never as wrong data).
func (s *FileStore) Get(k CellKey) (CellResult, bool, error) {
	path := filepath.Join(s.dir, k.fileName())
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return CellResult{}, false, nil
	}
	if err != nil {
		return CellResult{}, false, fmt.Errorf("sweep: read cell %s: %w", k, err)
	}
	var res CellResult
	if err := json.Unmarshal(b, &res); err != nil {
		// Damaged on disk: it can never be served, so set it aside (best
		// effort) and let the cell be recomputed and rewritten.
		_ = os.Rename(path, path+".corrupt")
		return CellResult{}, false, nil
	}
	if res.Key != k {
		return CellResult{}, false, nil
	}
	return res, true, nil
}

// Put writes the entry atomically.
func (s *FileStore) Put(res CellResult) error {
	if !res.Key.Valid() {
		return fmt.Errorf("sweep: cannot store invalid key")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("sweep: encode cell %s: %w", res.Key, err)
	}
	tmp, err := os.CreateTemp(s.dir, "cell-*")
	if err != nil {
		return fmt.Errorf("sweep: write cell %s: %w", res.Key, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("sweep: write cell %s: %w", res.Key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sweep: write cell %s: %w", res.Key, err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, res.Key.fileName())); err != nil {
		return fmt.Errorf("sweep: write cell %s: %w", res.Key, err)
	}
	return nil
}

// Tiered layers a fast store over a durable one: Gets hit mem first and
// promote disk hits into mem; Puts write through to both. This is
// gridsearch -cache's shape — an LRU absorbing the hot working set over a
// FileStore that outlives the process.
func Tiered(mem, disk Store) Store { return &tiered{mem: mem, disk: disk} }

type tiered struct {
	mem, disk Store
}

func (t *tiered) Get(k CellKey) (CellResult, bool, error) {
	if res, ok, err := t.mem.Get(k); err != nil || ok {
		return res, ok, err
	}
	res, ok, err := t.disk.Get(k)
	if err != nil || !ok {
		return CellResult{}, false, err
	}
	if err := t.mem.Put(res); err != nil {
		return CellResult{}, false, err
	}
	return res, true, nil
}

func (t *tiered) keep(k CellKey, payload []byte, v any) {
	if vk, ok := t.mem.(valueKeeper); ok {
		vk.keep(k, payload, v)
	}
}

func (t *tiered) Put(res CellResult) error {
	if err := t.mem.Put(res); err != nil {
		return err
	}
	return t.disk.Put(res)
}
