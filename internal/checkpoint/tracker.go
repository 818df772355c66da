package checkpoint

import "fmt"

// Revival records one node coming back from a brown-out.
type Revival struct {
	Node int
	// Staleness is how many rounds the node missed while dead: the revival
	// round minus one, minus the last round it completed live. A node that
	// revives after being dead for exactly one round has staleness 1.
	Staleness int
}

// Tracker watches the per-round live mask and turns it into discrete
// life-cycle events: deaths (live -> dead) and revivals (dead -> live),
// with per-node staleness. All nodes are presumed live before round 0, so
// a fleet that starts with drained batteries registers its deaths on the
// first observed round.
type Tracker struct {
	lastLive  []int // last round node i completed live; -1 before any
	dead      []bool
	lastRound int // last round fed to Observe; -1 before any
}

// NewTracker returns a tracker for n nodes.
func NewTracker(n int) (*Tracker, error) {
	if n < 1 {
		return nil, fmt.Errorf("checkpoint: tracker needs >= 1 node, got %d", n)
	}
	tr := &Tracker{lastLive: make([]int, n), dead: make([]bool, n), lastRound: -1}
	for i := range tr.lastLive {
		tr.lastLive[i] = -1
	}
	return tr, nil
}

// LastObserved returns the last round fed to Observe, -1 before any. A
// tracker (and the manager holding it) is single-run state: the engine
// rejects one that has already observed rounds.
func (tr *Tracker) LastObserved() int { return tr.lastRound }

// Nodes returns the number of tracked nodes.
func (tr *Tracker) Nodes() int { return len(tr.dead) }

// Observe ingests round t's live mask (nil means all live) and returns the
// nodes that died and revived this round, in ascending node order. Observe
// must be called once per round with t strictly increasing; going
// backwards (reusing a tracker across runs) panics, because the staleness
// bookkeeping would silently go negative.
func (tr *Tracker) Observe(t int, live []bool) (died []int, revived []Revival) {
	if t <= tr.lastRound {
		panic(fmt.Sprintf("checkpoint: Observe(%d) after round %d; trackers are single-run state", t, tr.lastRound))
	}
	tr.lastRound = t
	for i := range tr.dead {
		alive := live == nil || live[i]
		switch {
		case alive && tr.dead[i]:
			revived = append(revived, Revival{Node: i, Staleness: t - 1 - tr.lastLive[i]})
		case !alive && !tr.dead[i]:
			died = append(died, i)
		}
		tr.dead[i] = !alive
		if alive {
			tr.lastLive[i] = t
		}
	}
	return died, revived
}
