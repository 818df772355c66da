// Package obstest holds the in-memory event sink that tests attach to a
// probe (see package obs) to read back what a run emitted.
package obstest

import (
	"sync"

	"repro/internal/obs"
)

// MemorySink buffers events in order of arrival. Limit, when positive,
// caps the buffer: events past the cap are counted in Dropped() and
// discarded.
type MemorySink struct {
	mu      sync.Mutex
	events  []obs.Event
	dropped int

	// Limit caps the buffer when positive (0 means unbounded). Set before
	// the first Emit.
	Limit int
}

// NewMemory returns an empty, unbounded in-memory sink.
func NewMemory() *MemorySink { return &MemorySink{} }

func (s *MemorySink) Emit(ev obs.Event) {
	s.mu.Lock()
	if s.Limit > 0 && len(s.events) >= s.Limit {
		s.dropped++
	} else {
		s.events = append(s.events, ev)
	}
	s.mu.Unlock()
}

// Close is a no-op.
func (s *MemorySink) Close() error { return nil }

// Events returns a copy of everything emitted so far.
func (s *MemorySink) Events() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]obs.Event, len(s.events))
	copy(out, s.events)
	return out
}

// Dropped returns how many events were discarded because the buffer was
// at Limit.
func (s *MemorySink) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
