package difftest

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/harvest"
)

// FuzzBatteryKernel drives random sequences of the battery kernel's
// operations through the exported surface of one-node production fleets and
// through the oracle Battery, and requires the charge to agree bit for bit
// after every operation. In round time (Fleet) one op byte is a round: an
// optional TryTrain (tryConsume), then EndRound or EndRoundLive (drain, then
// store of that round's arrival). In virtual time (VFleet) one op byte is an
// optional TrySync (tryConsume) followed by an advance of 1/8 to four trace
// rounds, plain or stopping at the solved brown-out crossing; a trace round
// lasts 1 + (round mod 10⁸) µs, so most durations are not dyadic and
// the advances land near round boundaries where t/R rounds across an
// integer. Beyond equality it asserts the invariants every fleet relies
// on: 0 ≤ charge ≤ capacity, an admitted consume never leaves the charge
// below the cutoff, a browned-out node sits at or below its cutoff, and
// the ledgers conserve (harvested − consumed = Δcharge, stored + wasted =
// arrived).
func FuzzBatteryKernel(f *testing.F) {
	const minute = 59_999_999                                                                     // a 60 s trace round
	f.Add(uint8(127), uint8(64), uint8(0), uint32(minute), []byte{0x80})                          // a training round that lands exactly on the cutoff
	f.Add(uint8(255), uint8(0), uint8(0), uint32(minute), []byte{0x3f, 0x3f, 0xbf})               // full battery: arrivals are wasted
	f.Add(uint8(20), uint8(10), uint8(200), uint32(minute), []byte{0x00, 0x40, 0x80, 0xc0, 0x01}) // heavy idle draw: drain clamps at empty
	f.Add(uint8(90), uint8(80), uint8(30), uint32(minute), []byte{0x5f, 0x1f, 0xdf, 0x9f, 0x48, 0x08, 0xff, 0x10})
	f.Add(uint8(0x14), uint8(0x0a), uint8(0xf5), uint32(minute), []byte("y0")) // found by fuzzing: the crossing snap landed one ulp above the cutoff
	f.Add(uint8(0x5a), uint8(0x50), uint8(0x1e), uint32(minute), []byte("x"))  // found by fuzzing: filling up lands one ulp above capacity
	// Found by fuzzing: a trace round of 59.999965 s. A clock on a round
	// boundary divided to just below it, and the whole advance was booked
	// at the previous round's rate.
	f.Add(uint8(0x14), uint8(0x0a), uint8(0xb0), uint32(59_999_964), []byte("x0"))
	f.Fuzz(func(t *testing.T, initial8, cutoff8, idle8 uint8, round uint32, ops []byte) {
		if len(ops) == 0 || len(ops) > 256 {
			t.Skip()
		}
		w := energy.CIFAR10Workload()
		dev := energy.Devices()[int(initial8)%len(energy.Devices())]
		trainWh := dev.TrainRoundWh(w)
		opt := harvest.Options{
			CapacityRounds: 4,
			InitialSoC:     (float64(initial8) + 1) / 256, // (0, 1]
			CutoffSoC:      float64(cutoff8) / 256,        // [0, 1)
			IdleWh:         float64(idle8) / 64 * trainWh,
		}
		// Round r delivers up to ~4 training rounds of energy, from the low
		// six bits of op r (the recording wraps when virtual time outruns it).
		rows := make([][]float64, len(ops))
		for r, op := range ops {
			rows[r] = []float64{float64(op&0x3f) / 16 * trainWh}
		}
		trace, err := harvest.NewReplay(rows)
		if err != nil {
			t.Fatal(err)
		}
		fuzzRoundTime(t, dev, w, trace, opt, ops)
		fuzzVirtualTime(t, dev, w, trace, opt, float64(1+round%100_000_000)/1e6, ops)
	})
}

// checkCharge requires the production charge to equal the oracle's bit for
// bit and to sit inside the battery, capacity included.
func checkCharge(t *testing.T, got float64, b *Battery, step int, what string) {
	t.Helper()
	if got != b.ChargeWh() {
		t.Fatalf("step %d after %s: charge %v, oracle %v", step, what, got, b.ChargeWh())
	}
	if !(got >= 0 && got <= b.CapacityWh) {
		t.Fatalf("step %d after %s: charge %v outside [0, capacity %v]", step, what, got, b.CapacityWh)
	}
}

func fuzzRoundTime(t *testing.T, dev energy.Device, w energy.Workload, trace *harvest.Replay, opt harvest.Options, ops []byte) {
	fleet, err := harvest.NewFleet([]energy.Device{dev}, w, trace, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBattery(fleet.CapacityWh(0), fleet.ChargeWh(0), fleet.CutoffWh(0))
	if err != nil {
		t.Fatal(err)
	}
	initial, arrived := b.ChargeWh(), 0.0
	trainWh := fleet.TrainCostWh(0)
	commWh := trainWh * energy.CommShareOfTraining
	for r, op := range ops {
		if op&0x80 != 0 {
			got, want := fleet.TryTrain(0), b.TryConsume(trainWh)
			if got != want {
				t.Fatalf("round %d: TryTrain %v, oracle %v", r, got, want)
			}
			if got && fleet.ChargeWh(0) < fleet.CutoffWh(0) {
				t.Fatalf("round %d: admitted training left charge %v below cutoff %v", r, fleet.ChargeWh(0), fleet.CutoffWh(0))
			}
			checkCharge(t, fleet.ChargeWh(0), &b, r, "TryTrain")
		}
		var stored []float64
		if op&0x40 != 0 {
			stored = fleet.EndRoundLive(r, []bool{false}) // dead radio: idle draw only
			b.Drain(opt.IdleWh)
		} else {
			stored = fleet.EndRound(r)
			b.Drain(opt.IdleWh + commWh)
		}
		if want := b.Harvest(trace.HarvestWh(0, r)); stored[0] != want {
			t.Fatalf("round %d: stored %v, oracle %v", r, stored[0], want)
		}
		arrived += trace.HarvestWh(0, r)
		checkCharge(t, fleet.ChargeWh(0), &b, r, "EndRound")
	}
	tol := 1e-9 * fleet.CapacityWh(0)
	if d := fleet.HarvestedWh() - fleet.ConsumedWh() - (fleet.ChargeWh(0) - initial); math.Abs(d) > tol {
		t.Fatalf("round time: harvested − consumed − Δcharge = %g", d)
	}
	if d := fleet.HarvestedWh() + fleet.WastedWh() - arrived; math.Abs(d) > tol {
		t.Fatalf("round time: stored + wasted − arrived = %g", d)
	}
}

func fuzzVirtualTime(t *testing.T, dev energy.Device, w energy.Workload, trace *harvest.Replay, opt harvest.Options, roundSec float64, ops []byte) {
	fleet, err := harvest.NewVFleet([]energy.Device{dev}, w, trace, opt, roundSec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBattery(fleet.CapacityWh(0), fleet.ChargeWh(0), fleet.CutoffWh(0))
	if err != nil {
		t.Fatal(err)
	}
	initial := b.ChargeWh()
	idleW := opt.IdleWh / roundSec
	for step, op := range ops {
		if op&0x80 != 0 {
			got, want := fleet.TrySync(0), b.TryConsume(fleet.CommCostWh(0))
			if got != want {
				t.Fatalf("step %d: TrySync %v, oracle %v", step, got, want)
			}
			if got && fleet.ChargeWh(0) < fleet.CutoffWh(0) {
				t.Fatalf("step %d: admitted gossip left charge %v below cutoff %v", step, fleet.ChargeWh(0), fleet.CutoffWh(0))
			}
			checkCharge(t, fleet.ChargeWh(0), &b, step, "TrySync")
		}
		until := b.Clock() + float64(1+op&0x1f)/8*roundSec // 1/8 … 4 trace rounds
		browned, err := advanceVirtual(fleet, &b, trace, idleW, until, op&0x40 != 0)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if over := fleet.ChargeWh(0) - fleet.CutoffWh(0); browned && over > 0 {
			t.Fatalf("step %d: browned-out node %g Wh above its cutoff", step, over)
		}
		checkCharge(t, fleet.ChargeWh(0), &b, step, "advance")
	}
	tol := 1e-9 * fleet.CapacityWh(0)
	if d := fleet.HarvestedWh() - fleet.ConsumedWh() - (fleet.ChargeWh(0) - initial); math.Abs(d) > tol {
		t.Fatalf("virtual time: harvested − consumed − Δcharge = %g", d)
	}
	arrived := trace.EnergyBetween(0, 0, b.Clock()/roundSec)
	if d := fleet.HarvestedWh() + fleet.WastedWh() - arrived; math.Abs(d) > tol*float64(len(ops)) {
		t.Fatalf("virtual time: stored + wasted − arrived = %g", d)
	}
}
