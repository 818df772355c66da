package harvest

import (
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/obs"
)

// Options tunes a Fleet or VFleet. The zero value is completed with
// sensible defaults by the constructor.
type Options struct {
	// CapacityRounds overrides each battery's capacity to this many
	// training rounds' worth of energy on its own device, instead of the
	// device profile's full battery. A phone's 17 Wh battery spans
	// thousands of scaled training rounds, so absolute state of charge
	// barely moves; harvesting-class hardware runs off supercaps holding a
	// handful of rounds. Set this to put SoC — and the SoC-driven policies
	// — on a meaningful scale. 0 keeps the device battery.
	CapacityRounds float64
	// InitialSoC is the initial state of charge as a fraction of capacity
	// in [0, 1]; with CapacityRounds, InitialSoC·CapacityRounds is the
	// initial charge in training rounds. The zero value means "unset" and
	// defaults to 1 (full); set StartEmpty for batteries that begin the
	// mission drained.
	InitialSoC float64
	// StartEmpty starts every battery at zero charge (a wake-with-the-sun
	// deployment), overriding InitialSoC.
	StartEmpty bool
	// CutoffSoC is the brown-out level as a fraction of capacity.
	// Default 0 (batteries usable down to empty).
	CutoffSoC float64
	// IdleWh is the always-on per-round draw every node pays regardless of
	// participation. Default 0.
	IdleWh float64
	// CommFrac prices one sharing/aggregation round as this fraction of the
	// node's training-round cost. Default energy.CommShareOfTraining, the
	// paper's measured ~1/216 ratio. Set negative to disable comm draw.
	CommFrac float64
}

func (o Options) defaults() Options {
	if o.InitialSoC == 0 {
		o.InitialSoC = 1
	}
	if o.CommFrac == 0 {
		o.CommFrac = energy.CommShareOfTraining
	}
	if o.CommFrac < 0 {
		o.CommFrac = 0
	}
	return o
}

// validate rejects option values no battery can be built from. Every range
// is written as the condition a valid value satisfies, so NaN — which fails
// every comparison — is refused along with ±Inf instead of reaching the
// batteries as a charge.
func (o Options) validate() error {
	finite := func(x float64) bool { return x >= -math.MaxFloat64 && x <= math.MaxFloat64 }
	switch {
	case !(o.CutoffSoC >= 0 && o.CutoffSoC < 1):
		return fmt.Errorf("harvest: cutoff SoC %v outside [0, 1)", o.CutoffSoC)
	case !(o.IdleWh >= 0 && finite(o.IdleWh)):
		return fmt.Errorf("harvest: idle draw %v is not a finite non-negative Wh", o.IdleWh)
	case !(o.CapacityRounds >= 0 && finite(o.CapacityRounds)):
		return fmt.Errorf("harvest: capacity rounds %v is not finite and non-negative", o.CapacityRounds)
	case !(o.InitialSoC >= 0 && o.InitialSoC <= 1):
		return fmt.Errorf("harvest: initial SoC %v outside [0, 1]", o.InitialSoC)
	case !finite(o.CommFrac):
		return fmt.Errorf("harvest: comm fraction %v is not finite", o.CommFrac)
	}
	return nil
}

// bank is a bank of batteries: the per-node battery state of a whole fleet
// as flat parallel slices, with its energy ledgers. It is the only
// production battery state — Fleet drives it in round time, VFleet in
// virtual time — and chargeWh changes only through the kernel (kernel.go),
// in the two ledgered operations below, and in VFleet's snap onto the
// cutoff at a solved brown-out. There is no per-node struct; node i is
// index i.
type bank struct {
	chargeWh   []float64
	capacityWh []float64
	cutoffWh   []float64
	trainWh    []float64 // training cost of one round (one step) on node i's device
	commWh     []float64 // sharing cost of one round (one gossip) on node i's device
	idleWh     float64   // always-on draw per trace round

	harvested []float64 // cumulative stored harvest per node
	consumed  []float64 // cumulative train+idle+comm drain per node
	wasted    []float64 // per-node harvest that arrived with the battery full
}

// newBank validates options and derives every node's costs, battery
// geometry, and initial charge (clamped into [0, capacity]) from its device
// profile — the shared constructor core of NewFleet and NewVFleet, so the
// two time models cannot drift in how a fleet shape is interpreted. It
// rewinds a stateful trace (TraceResetter): a fleet starts from the trace's
// first round, not from wherever a previous fleet on it left its chains.
// Its eight per-node rows are windows of one slab; an engine keeps its own
// rows in another.
func newBank(devices []energy.Device, w energy.Workload, trace Trace, opt Options) (bank, error) {
	if len(devices) == 0 {
		return bank{}, fmt.Errorf("harvest: fleet needs at least one device")
	}
	if trace == nil {
		return bank{}, fmt.Errorf("harvest: nil trace")
	}
	if err := w.Validate(); err != nil {
		return bank{}, err
	}
	if err := opt.validate(); err != nil {
		return bank{}, err
	}
	if tr, ok := trace.(TraceResetter); ok {
		tr.ResetTrace()
	}
	opt = opt.defaults()
	n := len(devices)
	rows := make([]float64, 8*n)
	b := bank{chargeWh: row(&rows, n), capacityWh: row(&rows, n), cutoffWh: row(&rows, n), trainWh: row(&rows, n),
		commWh: row(&rows, n), idleWh: opt.IdleWh, harvested: row(&rows, n), consumed: row(&rows, n), wasted: row(&rows, n)}
	for i, d := range devices {
		b.trainWh[i] = d.TrainRoundWh(w)
		b.commWh[i] = b.trainWh[i] * opt.CommFrac
		capacity := d.BatteryWh
		if opt.CapacityRounds > 0 {
			capacity = opt.CapacityRounds * b.trainWh[i]
		}
		if !(capacity > 0 && capacity <= math.MaxFloat64) {
			return bank{}, fmt.Errorf("harvest: node %d (%s): capacity %v is not a finite positive Wh", i, d.Name, capacity)
		}
		initial := opt.InitialSoC * capacity
		if opt.StartEmpty {
			initial = 0
		}
		b.capacityWh[i] = capacity
		// In [0, capacity): CutoffSoC is in [0, 1), and a product with a
		// factor below 1 never rounds up to capacity.
		b.cutoffWh[i] = opt.CutoffSoC * capacity
		// An empty battery storing the requested charge: the kernel's
		// clamps put it in [0, capacity].
		b.chargeWh[i], _ = store(0, capacity, initial)
	}
	return b, nil
}

// row cuts the next n-long row, capped at its length, off the front of
// *slab.
func row(slab *[]float64, n int) []float64 {
	r := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return r
}

// consume spends wh from node i on a load it may refuse — a training round,
// a gossip — all-or-nothing above the cutoff, and books it.
func (b *bank) consume(i int, wh float64) bool {
	c, ok := tryConsume(b.chargeWh[i], b.cutoffWh[i], wh)
	if ok {
		b.chargeWh[i] = c
		b.consumed[i] += wh
	}
	return ok
}

// settle closes an interval for node i: drawWh of load it cannot refuse is
// drained first (clamped at empty — a dead node cannot pay), then arrivedWh
// of harvest is stored (clamped at capacity — the rest is wasted), and the
// ledgers book exactly what the battery realized, so harvested − consumed =
// ΔCharge and stored + wasted = arrived hold to float round-off. Returns
// the energy stored.
func (b *bank) settle(i int, drawWh, arrivedWh float64) float64 {
	c, drained := drain(b.chargeWh[i], drawWh)
	c, stored := store(c, b.capacityWh[i], arrivedWh)
	b.chargeWh[i] = c
	b.consumed[i] += drained
	b.harvested[i] += stored
	b.wasted[i] += arrivedWh - stored
	return stored
}

// The read-only views below are promoted to Fleet and VFleet; the per-node
// ones are what charge-aware policies see (core.BatteryView) and are safe
// for concurrent use across distinct nodes.

// Nodes returns the fleet size.
func (b *bank) Nodes() int { return len(b.chargeWh) }

// SoC returns node i's state of charge in [0, 1].
func (b *bank) SoC(i int) float64 { return b.chargeWh[i] / b.capacityWh[i] }

// ChargeWh returns node i's charge level in Wh.
func (b *bank) ChargeWh(i int) float64 { return b.chargeWh[i] }

// CapacityWh returns node i's battery capacity in Wh; harvest beyond it is
// wasted.
func (b *bank) CapacityWh(i int) float64 { return b.capacityWh[i] }

// CutoffWh returns node i's brown-out level in Wh.
func (b *bank) CutoffWh(i int) float64 { return b.cutoffWh[i] }

// TrainCostWh returns the cost of one training round (async: one step) on
// node i's device.
func (b *bank) TrainCostWh(i int) float64 { return b.trainWh[i] }

// OverheadWh returns the non-training draw node i pays per trace round
// regardless of participation: the always-on idle draw plus one sharing
// cost. For the planning policies on a VFleet this is the same per-round
// approximation the round fleet charges; the realized async draw differs
// when a node gossips more or less than once per trace round.
func (b *bank) OverheadWh(i int) float64 { return b.idleWh + b.commWh[i] }

// Usable reports whether node i is above its brown-out cutoff. A battery
// at or below the cutoff cannot power the node.
func (b *bank) Usable(i int) bool { return b.chargeWh[i] > b.cutoffWh[i] }

// SoCStats computes the fleet's whole-population charge statistics in one
// pass over the charges as last settled: mean and minimum state of charge
// plus the depleted count (nodes at or below their cutoff), summing in
// index order. When observe is non-nil it receives every
// node's SoC in the same pass — the hook an engine points at a streaming
// quantile sketch (internal/obs) so SoC percentiles exist without
// materializing a per-node slice.
func (b *bank) SoCStats(observe func(soc float64)) (mean, min float64, depleted int) {
	sum := 0.0
	min = b.SoC(0)
	for i := range b.chargeWh {
		s := b.SoC(i)
		sum += s
		if s < min {
			min = s
		}
		if !b.Usable(i) {
			depleted++
		}
		if observe != nil {
			observe(s)
		}
	}
	return sum / float64(len(b.chargeWh)), min, depleted
}

// SetManifest records the fleet's battery shape in a run's manifest: the
// fleet sums of capacity, cutoff and per-round overhead, and the charge
// held now, the initial charge before a run. They decide who trains and
// who browns out; per-node values follow from the device mix and Options,
// so the sums are a compact fingerprint, and without them runs that differ
// only in (say) the cutoff would share one cache key.
func (b *bank) SetManifest(m *obs.ManifestBuilder) {
	overheadWh := 0.0
	for i := range b.chargeWh {
		overheadWh += b.OverheadWh(i)
	}
	m.SetFloat("fleet_capacity_wh", sum(b.capacityWh)).
		SetFloat("fleet_cutoff_wh", sum(b.cutoffWh)).
		SetFloat("fleet_overhead_wh", overheadWh).
		SetFloat("fleet_initial_wh", b.TotalChargeWh())
}

// TotalChargeWh returns the fleet's total stored energy — the audit
// baseline on run_start and the charge each ledger checkpoint reports.
func (b *bank) TotalChargeWh() float64 { return sum(b.chargeWh) }

// HarvestedWh returns the total energy stored from harvesting so far.
func (b *bank) HarvestedWh() float64 { return sum(b.harvested) }

// ConsumedWh returns the total energy drained (training + comm + idle).
func (b *bank) ConsumedWh() float64 { return sum(b.consumed) }

// WastedWh returns harvest energy that arrived while batteries were full.
func (b *bank) WastedWh() float64 { return sum(b.wasted) }

// NodeHarvestedWh returns node i's cumulative stored harvest.
func (b *bank) NodeHarvestedWh(i int) float64 { return b.harvested[i] }

// NodeConsumedWh returns node i's cumulative drain.
func (b *bank) NodeConsumedWh(i int) float64 { return b.consumed[i] }

func sum(xs []float64) float64 {
	t := 0.0
	for _, v := range xs {
		t += v
	}
	return t
}
