package sim

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// RejoinRule decides what a node resumes with when it comes back from a
// brown-out (Config.Rejoin). Under DropDeadNodes a dead node's model is
// frozen at its last live round's aggregation, so that model is also the
// node's last checkpoint: only the live neighborhood can make it fresher.
type RejoinRule interface {
	// Name identifies the rule in manifests, tables and CLI output.
	Name() string
	// Apply rewrites x, the reviving node's frozen model, in place and
	// reports whether it replaced it. staleness is the number of rounds
	// the node missed (>= 1); nbrMean is the mean model of its
	// continuously-live neighbors — live this round and the last — or nil
	// when it revives isolated. Both are read-only.
	Apply(x tensor.Vector, staleness int, nbrMean tensor.Vector) bool
}

// ResumeStale is the baseline: the node resumes from the parameters frozen
// at its death and trains on them, however many rounds old they are.
type ResumeStale struct{}

// Name returns "resume-stale".
func (ResumeStale) Name() string { return "resume-stale" }

// Apply keeps the frozen parameters.
func (ResumeStale) Apply(tensor.Vector, int, tensor.Vector) bool { return false }

// RestoreCheckpoint resumes from the freshest aggregated state reachable at
// revival, the mean of the continuously-live neighbors' models: the
// decentralized analogue of re-fetching the model from a live peer. A node
// that revives isolated keeps its frozen model, which is its own last
// checkpoint, so that does not count as a restore.
type RestoreCheckpoint struct{}

// Name returns "restore-checkpoint".
func (RestoreCheckpoint) Name() string { return "restore-checkpoint" }

// Apply copies the neighbor mean over x when there is one.
func (RestoreCheckpoint) Apply(x tensor.Vector, _ int, nbrMean tensor.Vector) bool {
	if nbrMean == nil {
		return false
	}
	copy(x, nbrMean)
	return true
}

// CatchUp blends the node's frozen model with its live neighbors' mean,
// discounting the frozen model by how stale it is:
//
//	w(s)      = 2^(-s / HalfLife)
//	x_rejoin  = w(s) * x_frozen + (1 - w(s)) * x̄_neighbors
//
// A node dead for one half-life keeps half of its own state; one dead for
// many half-lives effectively re-syncs to its neighborhood. The weights
// are convex for every staleness s >= 0: w ∈ (0, 1] and the pair sums to
// exactly 1.
type CatchUp struct {
	halfLife float64
}

// DefaultHalfLife is the staleness (in rounds) at which CatchUp trusts its
// own model and its neighborhood equally.
const DefaultHalfLife = 2.0

// NewCatchUp returns a CatchUp rule with the given half-life in rounds.
func NewCatchUp(halfLife float64) (*CatchUp, error) {
	if halfLife <= 0 || math.IsNaN(halfLife) || math.IsInf(halfLife, 0) {
		return nil, fmt.Errorf("sim: catch-up half-life %v must be positive and finite", halfLife)
	}
	return &CatchUp{halfLife: halfLife}, nil
}

// Name returns e.g. "catch-up(h=2)".
func (c *CatchUp) Name() string { return fmt.Sprintf("catch-up(h=%g)", c.halfLife) }

// weights returns the convex blend (own, neighbors) for a staleness.
func (c *CatchUp) weights(staleness int) (own, nbr float64) {
	own = math.Exp2(-float64(staleness) / c.halfLife)
	return own, 1 - own
}

// Apply blends x with the neighbor mean; without live neighbors there is
// nothing to catch up to and x stays as it froze.
func (c *CatchUp) Apply(x tensor.Vector, staleness int, nbrMean tensor.Vector) bool {
	if nbrMean == nil {
		return false
	}
	own, nbr := c.weights(staleness)
	tensor.ScaleTo(x, own, x)
	tensor.AXPY(x, nbr, nbrMean)
	return true
}

// RuleByName maps a CLI name to a rule: "stale", "restore", or "catchup"
// (with DefaultHalfLife).
func RuleByName(name string) (RejoinRule, error) {
	switch name {
	case "stale":
		return ResumeStale{}, nil
	case "restore":
		return RestoreCheckpoint{}, nil
	case "catchup":
		return NewCatchUp(DefaultHalfLife)
	}
	return nil, fmt.Errorf("sim: unknown rejoin rule %q (want stale, restore, or catchup)", name)
}
