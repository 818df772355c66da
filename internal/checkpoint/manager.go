package checkpoint

import (
	"fmt"

	"repro/internal/tensor"
)

// Manager binds a Store, a Tracker, and a RejoinRule into the hook the
// simulation engine drives: BeginRound turns the live mask into life-cycle
// events, Snapshot persists a dying node's last aggregated model, and Rule
// decides what a reviving node resumes with. The engine calls every method
// sequentially at the start of a round, so the manager holds no locks.
type Manager struct {
	store Store
	rule  RejoinRule
	tr    *Tracker
}

// NewManager returns a manager for n nodes. A nil store defaults to an
// in-memory store; the rule is required.
func NewManager(n int, store Store, rule RejoinRule) (*Manager, error) {
	if rule == nil {
		return nil, fmt.Errorf("checkpoint: nil rejoin rule")
	}
	if store == nil {
		var err error
		if store, err = NewMemStore(n); err != nil {
			return nil, err
		}
	}
	if store.Nodes() != n {
		return nil, fmt.Errorf("checkpoint: store covers %d nodes, manager needs %d", store.Nodes(), n)
	}
	tr, err := NewTracker(n)
	if err != nil {
		return nil, err
	}
	return &Manager{store: store, rule: rule, tr: tr}, nil
}

// Nodes returns the number of nodes the manager covers.
func (m *Manager) Nodes() int { return m.tr.Nodes() }

// Rule returns the configured rejoin rule.
func (m *Manager) Rule() RejoinRule { return m.rule }

// Tracker returns the per-node staleness tracker.
func (m *Manager) Tracker() *Tracker { return m.tr }

// BeginRound ingests round t's live mask and returns this round's deaths
// and revivals (ascending node order, with staleness attached).
func (m *Manager) BeginRound(t int, live []bool) (died []int, revived []Revival) {
	return m.tr.Observe(t, live)
}

// Snapshot persists a node's post-aggregation parameters stamped with the
// round whose aggregation produced them.
func (m *Manager) Snapshot(node, round int, params tensor.Vector) error {
	return m.store.Save(node, round, params)
}

// Load returns the node's latest snapshot (read-only), ok false when none.
func (m *Manager) Load(node int) (Snapshot, bool, error) {
	return m.store.Load(node)
}
