package harvest

import "math"

// The battery kernel: six pure scalar functions that are the only place in
// this package where a charge is moved or tested against its bounds. Fleet
// (round time) and VFleet (virtual time) keep charge in a bank's flat slices
// and reach the clamp at empty, the clamp at capacity and the all-or-nothing
// cutoff test only through these, so a change to the arithmetic lands once.
// Each is small enough that the compiler inlines it into its callers
// (go build -gcflags=-m), and the three that return a pair have a single
// exit so that, inlined, both results stay in registers there. The
// reference oracle in difftest is written separately and must not call
// them.

// drain removes up to wh from a store holding charge, for loads a node
// cannot refuse (idle and communication draw), clamping at empty. It returns
// the new charge and the amount actually drained; non-positive wh is ignored.
func drain(charge, wh float64) (float64, float64) {
	if wh <= 0 {
		wh = 0
	} else if wh > charge {
		wh = charge
	}
	return charge - wh, wh
}

// store adds up to wh to a store holding charge, clamping at capacity. It
// returns the new charge and the amount actually stored — the remainder
// arrived on a full battery and is wasted; non-positive wh is ignored. A
// store that fills the battery leaves exactly capacity: charge plus the
// rounded room can land one ulp above it.
func store(charge, capacity, wh float64) (float64, float64) {
	next := capacity
	if wh <= 0 {
		wh, next = 0, charge
	} else if room := capacity - charge; wh < room {
		next = charge + wh
	} else {
		wh = room
	}
	return next, wh
}

// affords is the one affordability test: whether a store at charge can
// spend wh on a load it may refuse without going below cutoff.
func affords(charge, cutoff, wh float64) bool { return wh >= 0 && charge-wh >= cutoff }

// tryConsume spends wh on a load a node may refuse (a training round, a
// gossip). It is all-or-nothing and never takes the charge below cutoff: a
// node must not brown out mid-round. A refusal returns charge unchanged.
func tryConsume(charge, cutoff, wh float64) (float64, bool) {
	ok := affords(charge, cutoff, wh)
	if ok {
		charge -= wh
	}
	return charge, ok
}

// timeToCharge solves the rising crossing: how long a store at charge takes
// to reach target under a constant net inflow netRate (signed; Wh per unit
// of time). 0 when already there; +Inf when the net rate is non-positive or
// the target exceeds capacity.
func timeToCharge(charge, target, capacity, netRate float64) float64 {
	if charge >= target {
		return 0
	}
	if netRate <= 0 || target > capacity {
		return math.Inf(1)
	}
	return (target - charge) / netRate
}

// timeToCutoff solves the falling crossing: how long a store at charge takes
// to fall to cutoff under a constant net inflow netRate (signed). 0 when
// already at or below the cutoff; +Inf when the store is not falling.
func timeToCutoff(charge, cutoff, netRate float64) float64 {
	if charge <= cutoff {
		return 0
	}
	if netRate >= 0 {
		return math.Inf(1)
	}
	return (charge - cutoff) / -netRate
}
