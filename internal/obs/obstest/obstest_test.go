package obstest

import (
	"testing"

	"repro/internal/obs"
)

func TestMemorySinkLimitCountsDropped(t *testing.T) {
	s := NewMemory()
	s.Limit = 3
	for i := 0; i < 10; i++ {
		s.Emit(obs.Event{Kind: obs.KindRoundEnd, Round: i, Node: -1})
	}
	if got := len(s.Events()); got != 3 {
		t.Fatalf("buffered %d events, want limit 3", got)
	}
	if s.Dropped() != 7 {
		t.Fatalf("Dropped() = %d, want 7", s.Dropped())
	}
	// The retained events are the earliest ones, in order.
	for i, ev := range s.Events() {
		if ev.Round != i {
			t.Fatalf("event %d has round %d", i, ev.Round)
		}
	}
}
