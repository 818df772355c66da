package difftest

import (
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/harvest"
)

// Battery is the reference oracle: one node's charge state as a plain
// struct with the drain/harvest/cutoff arithmetic spelled out on it. It is
// what the production fleets — flat slices driven through harvest's battery
// kernel — are compared against, bit for bit, so it is written on its own
// and shares no arithmetic with them: a change to the kernel that this file
// does not agree with fails Diff and FuzzBatteryKernel by name. Construct
// with NewBattery; the zero value is not usable.
type Battery struct {
	CapacityWh float64 // harvesting beyond it is wasted
	CutoffWh   float64 // brown-out level: at or below it the node is dead, and training never drains past it

	chargeWh float64
	clock    float64 // virtual-time cursor, advanced by AdvanceTo
}

// NewBattery returns a battery with the given capacity, initial charge and
// brown-out cutoff (all Wh). The initial charge is clamped into
// [0, capacity].
func NewBattery(capacityWh, initialWh, cutoffWh float64) (Battery, error) {
	switch {
	case capacityWh <= 0:
		return Battery{}, fmt.Errorf("difftest: non-positive capacity %v", capacityWh)
	case cutoffWh < 0 || cutoffWh >= capacityWh:
		return Battery{}, fmt.Errorf("difftest: cutoff %v outside [0, capacity %v)", cutoffWh, capacityWh)
	}
	return Battery{CapacityWh: capacityWh, CutoffWh: cutoffWh, chargeWh: math.Max(0, math.Min(initialWh, capacityWh))}, nil
}

// ChargeWh returns the current charge level in Wh.
func (b *Battery) ChargeWh() float64 { return b.chargeWh }

// SoC returns the state of charge as a fraction of capacity in [0, 1].
func (b *Battery) SoC() float64 { return b.chargeWh / b.CapacityWh }

// Usable reports whether the battery is above the brown-out cutoff.
func (b *Battery) Usable() bool { return b.chargeWh > b.CutoffWh }

// Harvest stores up to wh watt-hours and returns the amount actually stored;
// the remainder (a full battery) is wasted. Negative input is ignored.
func (b *Battery) Harvest(wh float64) float64 {
	if wh <= 0 {
		return 0
	}
	room := b.CapacityWh - b.chargeWh
	if wh >= room {
		b.chargeWh = b.CapacityWh
		return room
	}
	b.chargeWh += wh
	return wh
}

// Drain removes up to wh watt-hours for loads the node cannot refuse (idle
// and communication draw), clamping at empty, and returns the amount
// actually drained.
func (b *Battery) Drain(wh float64) float64 {
	if wh <= 0 {
		return 0
	}
	if wh > b.chargeWh {
		wh = b.chargeWh
	}
	b.chargeWh -= wh
	return wh
}

// TryConsume atomically spends wh watt-hours on a training round. It is
// all-or-nothing and never takes the battery below the cutoff: a node must
// not brown out mid-round.
func (b *Battery) TryConsume(wh float64) bool {
	if wh < 0 || b.chargeWh-wh < b.CutoffWh {
		return false
	}
	b.chargeWh -= wh
	return true
}

// Clock returns the battery's virtual-time cursor: how far AdvanceTo has
// integrated.
func (b *Battery) Clock() float64 { return b.clock }

// AdvanceTo integrates constant harvest and drain rates (Wh per unit of
// virtual time) from the battery's clock to t, paying drain before storing
// harvest, and moves the clock to t. It returns the energy actually stored
// and actually drained (both clamp: a full battery wastes arrivals, an empty
// one cannot pay); t at or before the clock is a no-op.
func (b *Battery) AdvanceTo(t, harvestRateWh, drainRateWh float64) (storedWh, drainedWh float64) {
	dt := t - b.clock
	if dt <= 0 {
		return 0, 0
	}
	b.clock = t
	drainedWh = b.Drain(drainRateWh * dt)
	storedWh = b.Harvest(harvestRateWh * dt)
	return storedWh, drainedWh
}

// TimeToCharge solves the charge-arrival crossing: how long until the
// battery reaches targetWh under a constant net inflow rate (Wh per unit
// of virtual time). 0 when already there; +Inf when the net rate is
// non-positive or the target exceeds capacity.
func (b *Battery) TimeToCharge(targetWh, netRateWh float64) float64 {
	switch {
	case b.chargeWh >= targetWh:
		return 0
	case netRateWh <= 0 || targetWh > b.CapacityWh:
		return math.Inf(1)
	}
	return (targetWh - b.chargeWh) / netRateWh
}

// TimeToCutoff solves the brown-out crossing: how long until the battery
// drains to its cutoff under a constant net load rate (Wh per unit of
// virtual time, positive = net outflow). 0 when already at or below the
// cutoff; +Inf when the battery is not losing charge.
func (b *Battery) TimeToCutoff(loadRateWh float64) float64 {
	switch {
	case b.chargeWh <= b.CutoffWh:
		return 0
	case loadRateWh <= 0:
		return math.Inf(1)
	}
	return (b.chargeWh - b.CutoffWh) / loadRateWh
}

// advanceVirtual advances node 0 of a one-node virtual-time fleet and the
// oracle b from b's clock to until, and returns whether the fleet browned
// out, or an error when the two disagree on where the advance stopped,
// whether it browned out, or the clock it left the node at. With detect the
// fleet stops at its solved brown-out crossing (AdvanceDetect); without, it
// runs to until (AdvanceNode). The oracle walks the same per-round-uniform
// quantization: it splits at trace round boundaries — round k holds the
// clocks c with k·roundSec ≤ c < (k+1)·roundSec as computed in floats,
// found by stepping from floor(c/roundSec) — and, with detect, stops at the
// solved crossing with the charge set onto the cutoff. Charges are left for
// the caller to compare.
func advanceVirtual(fleet *harvest.VFleet, b *Battery, trace harvest.ContinuousTrace, idleW, until float64, detect bool) (browned bool, err error) {
	roundSec := fleet.RoundSeconds()
	stop := until
	if detect {
		stop, browned = fleet.AdvanceDetect(0, until)
	} else {
		fleet.AdvanceNode(0, until)
	}
	wantStop, wantBrowned := until, false
	for b.clock < until && !wantBrowned {
		k := int(math.Floor(b.clock / roundSec))
		for float64(k)*roundSec > b.clock {
			k--
		}
		for float64(k+1)*roundSec <= b.clock {
			k++
		}
		segEnd := math.Min(until, float64(k+1)*roundSec)
		harvestW := trace.EnergyBetween(0, float64(k), float64(k+1)) / roundSec
		if detect && b.Usable() {
			if cross := b.clock + b.TimeToCutoff(idleW-harvestW); cross < segEnd {
				b.AdvanceTo(cross, harvestW, idleW)
				b.chargeWh = math.Min(b.chargeWh, b.CutoffWh)
				wantStop, wantBrowned = cross, true
				continue
			}
		}
		b.AdvanceTo(segEnd, harvestW, idleW)
	}
	if stop != wantStop || browned != wantBrowned || fleet.Clock(0) != b.clock {
		return browned, fmt.Errorf("advance stopped at (%v, %v) clock %v, oracle (%v, %v) clock %v",
			stop, browned, fleet.Clock(0), wantStop, wantBrowned, b.clock)
	}
	return browned, nil
}

// refFleet is the reference round fleet: one Battery per node, advanced the
// way harvest.Fleet documents a round — TryTrain spends the training cost,
// EndRound pays idle and communication draw and then harvests — with the
// ledgers kept beside it. Diff drives every scenario cell through it in
// lockstep with a production fleet.
type refFleet struct {
	batteries []Battery
	trainWh   []float64
	commWh    []float64
	idleWh    float64
	trace     harvest.Trace

	harvested, consumed, wasted []float64
	roundHarvest, roundArrived  []float64
}

// newRefFleet builds the reference for the fleet shape of shape, taking
// geometry, charge and training costs from its read-only accessors and
// pricing the overhead from opt the way harvest.Options documents it.
// shape's batteries are not touched; trace must be an instance it does not
// share.
func newRefFleet(shape *harvest.Fleet, trace harvest.Trace, opt harvest.Options) *refFleet {
	n := shape.Nodes()
	commFrac := opt.CommFrac
	if commFrac == 0 {
		commFrac = energy.CommShareOfTraining
	}
	commFrac = math.Max(commFrac, 0)
	r := &refFleet{
		batteries: make([]Battery, n), trainWh: make([]float64, n), commWh: make([]float64, n),
		idleWh: opt.IdleWh, trace: trace,
		harvested: make([]float64, n), consumed: make([]float64, n), wasted: make([]float64, n),
		roundHarvest: make([]float64, n), roundArrived: make([]float64, n),
	}
	for i := range r.batteries {
		r.batteries[i] = Battery{CapacityWh: shape.CapacityWh(i), CutoffWh: shape.CutoffWh(i), chargeWh: shape.ChargeWh(i)}
		r.trainWh[i] = shape.TrainCostWh(i)
		r.commWh[i] = r.trainWh[i] * commFrac
	}
	return r
}

// The per-node view policies decide against (core.BatteryView).
func (r *refFleet) SoC(i int) float64         { return r.batteries[i].SoC() }
func (r *refFleet) ChargeWh(i int) float64    { return r.batteries[i].ChargeWh() }
func (r *refFleet) CapacityWh(i int) float64  { return r.batteries[i].CapacityWh }
func (r *refFleet) CutoffWh(i int) float64    { return r.batteries[i].CutoffWh }
func (r *refFleet) TrainCostWh(i int) float64 { return r.trainWh[i] }
func (r *refFleet) OverheadWh(i int) float64  { return r.idleWh + r.commWh[i] }

func (r *refFleet) TryTrain(i int) bool {
	if !r.batteries[i].TryConsume(r.trainWh[i]) {
		return false
	}
	r.consumed[i] += r.trainWh[i]
	return true
}

// endRound closes round t; a nil mask means every radio was up.
func (r *refFleet) endRound(t int, live []bool) []float64 {
	for i := range r.batteries {
		b := &r.batteries[i]
		draw := r.idleWh
		if live == nil || live[i] {
			draw += r.commWh[i]
		}
		r.consumed[i] += b.Drain(draw)
		arrived := r.trace.HarvestWh(i, t)
		stored := b.Harvest(arrived)
		r.harvested[i] += stored
		r.wasted[i] += arrived - stored
		r.roundHarvest[i] = stored
		r.roundArrived[i] = arrived
	}
	return r.roundHarvest
}

func total(xs []float64) float64 {
	t := 0.0
	for _, v := range xs {
		t += v
	}
	return t
}
