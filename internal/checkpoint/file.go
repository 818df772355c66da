package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// FileStore persists snapshots to disk, one file per node, in the nn
// checkpoint format prefixed with an 8-byte round stamp. It is the durable
// store an intermittently-powered deployment would back with flash: a node
// that loses volatile state in a brown-out restores from here.
//
// Writes are atomic (temp file + rename), so a power failure mid-save
// leaves the previous snapshot intact — the property the whole subsystem
// exists to provide.
type FileStore struct {
	dir string
	n   int
}

// NewFileStore returns a file-backed store for n nodes rooted at dir,
// creating the directory if needed. Snapshots already present in dir (from
// an earlier process) remain loadable.
func NewFileStore(dir string, n int) (*FileStore, error) {
	if n < 1 {
		return nil, fmt.Errorf("checkpoint: store needs >= 1 node, got %d", n)
	}
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create store dir: %w", err)
	}
	return &FileStore{dir: dir, n: n}, nil
}

// Nodes returns the number of nodes the store covers.
func (s *FileStore) Nodes() int { return s.n }

func (s *FileStore) path(node int) string {
	return filepath.Join(s.dir, fmt.Sprintf("node-%04d.ckpt", node))
}

// Save writes the node's snapshot atomically: round stamp, then the nn
// checkpoint encoding of params.
func (s *FileStore) Save(node, round int, params tensor.Vector) error {
	if node < 0 || node >= s.n {
		return fmt.Errorf("checkpoint: node %d outside store of %d", node, s.n)
	}
	tmp, err := os.CreateTemp(s.dir, "ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: save node %d: %w", node, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	var stamp [8]byte
	binary.LittleEndian.PutUint64(stamp[:], uint64(int64(round)))
	if _, err := tmp.Write(stamp[:]); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: save node %d: %w", node, err)
	}
	if err := nn.WriteVector(tmp, params); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: save node %d: %w", node, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: save node %d: %w", node, err)
	}
	if err := os.Rename(tmp.Name(), s.path(node)); err != nil {
		return fmt.Errorf("checkpoint: save node %d: %w", node, err)
	}
	return nil
}

// Load reads the node's snapshot file; ok is false when none exists.
func (s *FileStore) Load(node int) (Snapshot, bool, error) {
	if node < 0 || node >= s.n {
		return Snapshot{}, false, fmt.Errorf("checkpoint: node %d outside store of %d", node, s.n)
	}
	f, err := os.Open(s.path(node))
	if os.IsNotExist(err) {
		return Snapshot{}, false, nil
	}
	if err != nil {
		return Snapshot{}, false, fmt.Errorf("checkpoint: load node %d: %w", node, err)
	}
	defer f.Close()
	var stamp [8]byte
	if _, err := io.ReadFull(f, stamp[:]); err != nil {
		return Snapshot{}, false, fmt.Errorf("checkpoint: load node %d: %w", node, err)
	}
	params, err := nn.ReadVector(f)
	if err != nil {
		return Snapshot{}, false, fmt.Errorf("checkpoint: load node %d: %w", node, err)
	}
	return Snapshot{Round: int(int64(binary.LittleEndian.Uint64(stamp[:]))), Params: params}, true, nil
}
