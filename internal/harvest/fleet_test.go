package harvest

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/energy"
)

func testFleet(t *testing.T, trace Trace, opt Options) *Fleet {
	t.Helper()
	devices := energy.AssignDevices(8, energy.Devices())
	f, err := NewFleet(devices, energy.CIFAR10Workload(), trace, opt)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFleetValidates(t *testing.T) {
	w := energy.CIFAR10Workload()
	devices := energy.AssignDevices(4, energy.Devices())
	if _, err := NewFleet(nil, w, Constant{0}, Options{}); err == nil {
		t.Fatal("empty fleet should error")
	}
	if _, err := NewFleet(devices, w, nil, Options{}); err == nil {
		t.Fatal("nil trace should error")
	}
	if _, err := NewFleet(devices, energy.Workload{}, Constant{0}, Options{}); err == nil {
		t.Fatal("invalid workload should error")
	}
	if _, err := NewFleet(devices, w, Constant{0}, Options{CutoffSoC: 1.5}); err == nil {
		t.Fatal("bad cutoff should error")
	}
	if _, err := NewFleet(devices, w, Constant{0}, Options{IdleWh: -1}); err == nil {
		t.Fatal("negative idle should error")
	}
}

// TestFleetInitialRounds: a full battery of four rounds' capacity holds
// four training rounds' charge and affords exactly four rounds.
func TestFleetInitialRounds(t *testing.T) {
	f := testFleet(t, Constant{0}, Options{CapacityRounds: 4, InitialSoC: 1})
	for i := 0; i < f.Nodes(); i++ {
		want := 4 * f.TrainCostWh(i)
		if got := f.ChargeWh(i); math.Abs(got-want) > 1e-12 {
			t.Fatalf("node %d initial charge %v, want %v", i, got, want)
		}
	}
	// Exactly 4 training rounds are affordable, then the battery refuses.
	for r := 0; r < 4; r++ {
		if !f.TryTrain(0) {
			t.Fatalf("round %d should be affordable", r)
		}
	}
	if f.TryTrain(0) {
		t.Fatal("fifth round should be refused")
	}
}

func TestFleetDefaultsToFullBatteries(t *testing.T) {
	f := testFleet(t, Constant{0}, Options{})
	for i := 0; i < f.Nodes(); i++ {
		if f.SoC(i) != 1 {
			t.Fatalf("node %d SoC %v, want full", i, f.SoC(i))
		}
	}
}

// TestFleetEnergyConservation checks the battery ledger: final charge equals
// initial charge plus stored harvest minus drained consumption, per node.
func TestFleetEnergyConservation(t *testing.T) {
	trace, err := NewMarkovOnOff(8, 0.004, 0.3, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	f := testFleet(t, trace, Options{CapacityRounds: 6, InitialSoC: 0.5, IdleWh: 0.0002})
	initial := make([]float64, f.Nodes())
	for i := range initial {
		initial[i] = f.ChargeWh(i)
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < f.Nodes(); i++ {
			if round%2 == i%2 { // arbitrary but deterministic participation
				f.TryTrain(i)
			}
		}
		f.EndRound(round)
	}
	for i := 0; i < f.Nodes(); i++ {
		want := initial[i] + f.NodeHarvestedWh(i) - f.NodeConsumedWh(i)
		if got := f.ChargeWh(i); math.Abs(got-want) > 1e-9 {
			t.Fatalf("node %d ledger mismatch: charge %v, want %v", i, got, want)
		}
	}
	if f.HarvestedWh() <= 0 {
		t.Fatal("markov trace should have harvested something in 50 rounds")
	}
}

func TestFleetWastedWh(t *testing.T) {
	// Full batteries + constant harvest and no draw: everything is wasted.
	f := testFleet(t, Constant{0.5}, Options{CommFrac: -1})
	f.EndRound(0)
	if f.HarvestedWh() != 0 {
		t.Fatalf("full batteries stored %v Wh", f.HarvestedWh())
	}
	if want := 0.5 * float64(f.Nodes()); math.Abs(f.WastedWh()-want) > 1e-12 {
		t.Fatalf("wasted %v, want %v", f.WastedWh(), want)
	}
}

func TestFleetDepletedCountAndStats(t *testing.T) {
	f := testFleet(t, Constant{0}, Options{CapacityRounds: 1, InitialSoC: 1, IdleWh: 1})
	if _, _, depleted := f.SoCStats(nil); depleted != 0 {
		t.Fatal("fresh fleet should have no depleted nodes")
	}
	for i := 0; i < f.Nodes(); i++ {
		f.TryTrain(i)
	}
	f.EndRound(0) // the huge idle draw empties what's left
	mean, min, depleted := f.SoCStats(nil)
	if depleted != f.Nodes() {
		t.Fatalf("depleted %d, want all %d", depleted, f.Nodes())
	}
	if min > 1e-9 || mean > 1e-9 {
		t.Fatalf("stats nonzero on empty fleet: min=%v mean=%v", min, mean)
	}
	socs := f.SoCs()
	if len(socs) != f.Nodes() {
		t.Fatalf("SoCs length %d", len(socs))
	}
}

// TestFleetParallelTryTrainDeterministic drives TryTrain from one goroutine
// per node — the engine's worst-case interleaving — and checks the SoC
// trajectory is bit-identical to a serial run. All fleet state is per-node,
// so scheduling must not matter.
func TestFleetParallelTryTrainDeterministic(t *testing.T) {
	trace := func() Trace {
		d, err := NewDiurnal(0.01, 12, LongitudePhase(8))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	run := func(parallel bool) [][]float64 {
		f := testFleet(t, trace(), Options{CapacityRounds: 4, InitialSoC: 0.5})
		var history [][]float64
		for round := 0; round < 40; round++ {
			if parallel {
				var wg sync.WaitGroup
				for i := 0; i < f.Nodes(); i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						if f.SoC(i) > 0.0001 {
							f.TryTrain(i)
						}
					}(i)
				}
				wg.Wait()
			} else {
				for i := 0; i < f.Nodes(); i++ {
					if f.SoC(i) > 0.0001 {
						f.TryTrain(i)
					}
				}
			}
			f.EndRound(round)
			history = append(history, f.SoCs())
		}
		return history
	}
	serial, concurrent := run(false), run(true)
	for round := range serial {
		for i := range serial[round] {
			if serial[round][i] != concurrent[round][i] {
				t.Fatalf("round %d node %d: serial SoC %v != parallel SoC %v",
					round, i, serial[round][i], concurrent[round][i])
			}
		}
	}
}

func TestFleetCapacityRoundsOverride(t *testing.T) {
	f := testFleet(t, Constant{0}, Options{CapacityRounds: 10, InitialSoC: 0.5})
	for i := 0; i < f.Nodes(); i++ {
		if got, want := f.ChargeWh(i), 5*f.TrainCostWh(i); math.Abs(got-want) > 1e-12 {
			t.Fatalf("node %d charge %v, want %v (5 rounds of a 10-round cap)", i, got, want)
		}
		if math.Abs(f.SoC(i)-0.5) > 1e-12 {
			t.Fatalf("node %d SoC %v, want 0.5", i, f.SoC(i))
		}
	}
	if _, err := NewFleet(energy.AssignDevices(2, energy.Devices()), energy.CIFAR10Workload(),
		Constant{0}, Options{CapacityRounds: -1}); err == nil {
		t.Fatal("negative capacity rounds should error")
	}
}

func TestFleetInitialOptionsValidationAndStartEmpty(t *testing.T) {
	devices := energy.AssignDevices(2, energy.Devices())
	w := energy.CIFAR10Workload()
	if _, err := NewFleet(devices, w, Constant{0}, Options{InitialSoC: 1.5}); err == nil {
		t.Fatal("InitialSoC > 1 should error")
	}
	if _, err := NewFleet(devices, w, Constant{0}, Options{InitialSoC: -0.2}); err == nil {
		t.Fatal("negative InitialSoC should error")
	}
	f, err := NewFleet(devices, w, Constant{0}, Options{InitialSoC: 0.8, StartEmpty: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.Nodes(); i++ {
		if f.ChargeWh(i) != 0 {
			t.Fatalf("StartEmpty node %d has charge %v", i, f.ChargeWh(i))
		}
	}
}

// Live hands out one fleet-owned mask: the second call overwrites what the
// first returned (the documented lifetime), every entry is the node's Usable
// state at the call, and no call allocates.
func TestFleetLiveReusesItsMask(t *testing.T) {
	f := testFleet(t, Constant{0}, Options{CapacityRounds: 4, InitialSoC: 1, CutoffSoC: 0.5})
	first := f.Live()
	f.chargeWh[0] = 0
	second := f.Live()
	if &first[0] != &second[0] {
		t.Fatal("Live returned a fresh slice: the mask is not reused")
	}
	if first[0] {
		t.Fatal("the second Live call did not overwrite the first call's slice")
	}
	for i, l := range second {
		if l != f.Usable(i) {
			t.Fatalf("live[%d] = %v, Usable = %v", i, l, f.Usable(i))
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { f.EndRoundLive(0, f.Live()) }); allocs != 0 {
		t.Fatalf("Live + EndRoundLive allocate %v times per round, want 0", allocs)
	}
}

func TestFleetLiveSnapshot(t *testing.T) {
	f := testFleet(t, Constant{0}, Options{CapacityRounds: 4, InitialSoC: 1, CutoffSoC: 0.5})
	live := f.Live()
	if len(live) != f.Nodes() {
		t.Fatalf("live set covers %d nodes, fleet has %d", len(live), f.Nodes())
	}
	for i, l := range live {
		if !l {
			t.Fatalf("full node %d reported dead", i)
		}
	}
	if _, _, depleted := f.SoCStats(nil); depleted != 0 {
		t.Fatalf("%d nodes depleted, want none", depleted)
	}
	// Brown node 0 out (idle draw can push past the cutoff where training
	// cannot): it leaves the live set, others stay.
	f.chargeWh[0] = 0
	live = f.Live()
	if live[0] {
		t.Fatal("browned-out node 0 still reported live")
	}
	if !live[1] {
		t.Fatal("node 1 should still be live")
	}
	if _, _, depleted := f.SoCStats(nil); depleted != 1 {
		t.Fatalf("%d nodes depleted, want 1", depleted)
	}
	// The snapshot is a copy: mutating it does not touch fleet state.
	live[1] = false
	if !f.Usable(1) {
		t.Fatal("snapshot aliased fleet state")
	}
}

func TestEndRoundLiveSkipsCommDrawForDead(t *testing.T) {
	// Two otherwise-identical fleets: one closes the round with a dead set,
	// the other with EndRound. Dead nodes must save exactly the comm draw.
	const idle = 1e-6
	mk := func() *Fleet {
		return testFleet(t, Constant{0}, Options{CapacityRounds: 8, InitialSoC: 0.5, IdleWh: idle})
	}
	a, b := mk(), mk()
	live := make([]bool, a.Nodes())
	for i := range live {
		live[i] = i%2 == 0
	}
	a.EndRoundLive(0, live)
	b.EndRound(0)
	for i := 0; i < a.Nodes(); i++ {
		if live[i] {
			if a.ChargeWh(i) != b.ChargeWh(i) {
				t.Fatalf("live node %d charge differs: %v vs %v", i, a.ChargeWh(i), b.ChargeWh(i))
			}
			continue
		}
		want := b.ChargeWh(i) + a.commWh[i]
		if math.Abs(a.ChargeWh(i)-want) > 1e-15 {
			t.Fatalf("dead node %d paid comm draw: %v, want %v", i, a.ChargeWh(i), want)
		}
	}
	// Nil mask is exactly EndRound.
	c, d := mk(), mk()
	c.EndRoundLive(0, nil)
	d.EndRound(0)
	for i := 0; i < c.Nodes(); i++ {
		if c.ChargeWh(i) != d.ChargeWh(i) {
			t.Fatalf("nil-mask EndRoundLive differs at node %d", i)
		}
	}
}

// driveFleet steps the fleet through rounds of greedy training and returns
// the per-round (trained count, mean SoC) trajectory — a fingerprint fine
// enough that any leaked battery or chain state shows up.
func driveFleet(f *Fleet, rounds int) (trained []int, meanSoC []float64) {
	for t := 0; t < rounds; t++ {
		n := 0
		for i := 0; i < f.Nodes(); i++ {
			if f.TryTrain(i) {
				n++
			}
		}
		f.EndRound(t)
		mean, _, _ := f.SoCStats(nil)
		trained, meanSoC = append(trained, n), append(meanSoC, mean)
	}
	return trained, meanSoC
}

// TestFleetReuseDiverges demonstrates the bug Reset exists to fix: driving
// the same fleet through two "identical" runs silently carries drained
// batteries, ledgers, and Markov chain state into the second, so the second
// trajectory diverges from the first.
func TestFleetReuseDiverges(t *testing.T) {
	trace, err := NewMarkovOnOff(8, 0.004, 0.3, 0.3, 99)
	if err != nil {
		t.Fatal(err)
	}
	f := testFleet(t, trace, Options{CapacityRounds: 6, InitialSoC: 0.5})
	first, _ := driveFleet(f, 12)
	if !f.Consumed() {
		t.Fatal("fleet not marked consumed after a run")
	}
	second, _ := driveFleet(f, 12)
	same := true
	for i := range first {
		if first[i] != second[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("naive reuse did not diverge; the leak this test pins is gone: %v vs %v", first, second)
	}
	if f.ConsumedWh() <= 0 {
		t.Fatal("consumption ledger empty after two runs")
	}
}

// TestFleetResetReplaysBitIdentical is the fix: after Reset the fleet —
// batteries, ledgers, and re-seeded Markov chains — reproduces its first
// trajectory bit-for-bit.
func TestFleetResetReplaysBitIdentical(t *testing.T) {
	trace, err := NewMarkovOnOff(8, 0.004, 0.3, 0.3, 99)
	if err != nil {
		t.Fatal(err)
	}
	f := testFleet(t, trace, Options{CapacityRounds: 6, InitialSoC: 0.5})
	soc0 := f.SoCs()
	trained1, soc1 := driveFleet(f, 12)
	if err := f.Reset(); err != nil {
		t.Fatal(err)
	}
	if f.Consumed() {
		t.Fatal("fleet still consumed after Reset")
	}
	if f.HarvestedWh() != 0 || f.ConsumedWh() != 0 || f.WastedWh() != 0 {
		t.Fatalf("ledgers not zeroed: harvested %v consumed %v wasted %v",
			f.HarvestedWh(), f.ConsumedWh(), f.WastedWh())
	}
	for i, s := range f.SoCs() {
		if s != soc0[i] {
			t.Fatalf("node %d SoC %v after Reset, want initial %v", i, s, soc0[i])
		}
	}
	trained2, soc2 := driveFleet(f, 12)
	for i := range trained1 {
		if trained1[i] != trained2[i] || soc1[i] != soc2[i] {
			t.Fatalf("round %d differs after Reset: (%d, %v) vs (%d, %v)",
				i, trained1[i], soc1[i], trained2[i], soc2[i])
		}
	}
}

// statefulTrace is a deliberately non-resettable stateful trace.
type statefulTrace struct{ calls int }

func (s *statefulTrace) HarvestWh(int, int) float64 { s.calls++; return 0 }
func (s *statefulTrace) Name() string               { return "stateful" }

func TestFleetResetTraceHandling(t *testing.T) {
	// Stateless traces reset fine.
	for _, trace := range []Trace{Constant{0.001}, mustDiurnal(t), mustReplay(t)} {
		f := testFleet(t, trace, Options{CapacityRounds: 6, InitialSoC: 0.5})
		f.EndRound(0)
		if err := f.Reset(); err != nil {
			t.Fatalf("%s: %v", trace.Name(), err)
		}
	}
	// A stateful trace without TraceResetter must refuse: rewinding the
	// batteries but not the chain would splice two trajectories.
	f := testFleet(t, &statefulTrace{}, Options{CapacityRounds: 6, InitialSoC: 0.5})
	f.EndRound(0)
	if err := f.Reset(); err == nil {
		t.Fatal("Reset accepted a stateful, non-resettable trace")
	}
}

func mustDiurnal(t *testing.T) Trace {
	t.Helper()
	d, err := NewDiurnal(0.004, 12, LongitudePhase(8))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustReplay(t *testing.T) Trace {
	t.Helper()
	row := make([]float64, 8)
	for i := range row {
		row[i] = 0.001
	}
	r, err := NewReplay([][]float64{row})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFleetConsumedByTryTrainOnly: training drain alone (no EndRound ever
// closed) must already mark the fleet consumed — probing TryTrain before a
// run drains real charge, and sim.Run must refuse to build on it.
func TestFleetConsumedByTryTrainOnly(t *testing.T) {
	f := testFleet(t, Constant{0}, Options{CapacityRounds: 6, InitialSoC: 0.5})
	if f.Consumed() {
		t.Fatal("fresh fleet reports consumed")
	}
	if !f.TryTrain(0) {
		t.Fatal("affordable round refused")
	}
	if !f.Consumed() {
		t.Fatal("TryTrain drain not reflected in Consumed")
	}
	if err := f.Reset(); err != nil {
		t.Fatal(err)
	}
	if f.Consumed() {
		t.Fatal("fleet still consumed after Reset")
	}
}

// TestFleetConsumedByTrainingRound: with no idle draw, no communication
// cost and no harvest, a round's only energy movement is the training drain
// of the nodes that trained, and that must be what the consumed ledger
// holds — and what Reset clears.
func TestFleetConsumedByTrainingRound(t *testing.T) {
	f := testFleet(t, Constant{Wh: 0}, Options{CapacityRounds: 6, InitialSoC: 0.5, CommFrac: -1})
	if trained, _ := driveFleet(f, 1); trained[0] != f.Nodes() {
		t.Fatalf("trained %d of %d half-full nodes", trained[0], f.Nodes())
	}
	want := 0.0
	for i := 0; i < f.Nodes(); i++ {
		want += f.TrainCostWh(i)
	}
	if !f.Consumed() || f.ConsumedWh() != want {
		t.Fatalf("consumed %v (Consumed %v), want the training drain %v", f.ConsumedWh(), f.Consumed(), want)
	}
	if err := f.Reset(); err != nil {
		t.Fatal(err)
	}
	if f.Consumed() || f.ConsumedWh() != 0 {
		t.Fatal("fleet still consumed after Reset")
	}
}

// SoCStats must be bit-identical to the statistics recomputed here from the
// snapshot (the mean summed in index order), and feed every SoC to the
// observer in index order.
func TestFleetSoCStats(t *testing.T) {
	trace, err := NewDiurnal(0.01, 8, LongitudePhase(8))
	if err != nil {
		t.Fatal(err)
	}
	f := testFleet(t, trace, Options{CapacityRounds: 4, InitialSoC: 0.5, CutoffSoC: 0.2})
	for r := 0; r < 6; r++ {
		for i := 0; i < f.Nodes(); i++ {
			f.TryTrain(i)
		}
		f.EndRound(r)
		var observed []float64
		mean, min, depleted := f.SoCStats(func(s float64) { observed = append(observed, s) })
		socs := f.SoCs()
		wantMean, wantMin, wantDepleted := 0.0, socs[0], 0
		for i, s := range socs {
			wantMean += s
			wantMin = math.Min(wantMin, s)
			if !f.Usable(i) {
				wantDepleted++
			}
		}
		wantMean /= float64(len(socs))
		if mean != wantMean || min != wantMin || depleted != wantDepleted {
			t.Fatalf("round %d: SoCStats (%v, %v, %d) != (%v, %v, %d)",
				r, mean, min, depleted, wantMean, wantMin, wantDepleted)
		}
		if len(observed) != len(socs) {
			t.Fatalf("round %d: observer saw %d values, fleet has %d", r, len(observed), len(socs))
		}
		for i := range socs {
			if observed[i] != socs[i] {
				t.Fatalf("round %d node %d: observer saw %v, snapshot %v", r, i, observed[i], socs[i])
			}
		}
	}
	// A nil observer is the stats-only fast path.
	withObserver, _, _ := f.SoCStats(func(float64) {})
	if mean, _, _ := f.SoCStats(nil); mean != withObserver {
		t.Fatal("nil-observer SoCStats disagrees with the observed pass")
	}
}

// TestSweepMatchesThreePassSequence pins SweepThreshold to the sequence its
// doc states: per-node charge, ledgers and scratch slices bit-identical to
// the decide loop + EndRound, and trained, live and depleted counts equal
// to the staged drive's.
func TestSweepMatchesThreePassSequence(t *testing.T) {
	mk := func() *Fleet {
		trace, err := NewDiurnal(0.01, 8, LongitudePhase(8))
		if err != nil {
			t.Fatal(err)
		}
		return testFleet(t, trace, Options{CapacityRounds: 5, InitialSoC: 0.6, CutoffSoC: 0.2, IdleWh: 0.0005})
	}
	fused, staged := mk(), mk()
	const minSoC = 0.3
	for r := 0; r < 16; r++ {
		stats := fused.SweepThreshold(r, minSoC)
		trained := 0
		for i := 0; i < staged.Nodes(); i++ {
			if staged.SoC(i) > minSoC && staged.TryTrain(i) {
				trained++
			}
		}
		staged.EndRound(r)
		_, _, depleted := staged.SoCStats(nil)
		if stats.Trained != trained {
			t.Fatalf("round %d: sweep trained %d, staged %d", r, stats.Trained, trained)
		}
		if stats.Depleted != depleted || stats.Live != staged.Nodes()-depleted {
			t.Fatalf("round %d: sweep depleted/live (%d, %d), staged (%d, %d)",
				r, stats.Depleted, stats.Live, depleted, staged.Nodes()-depleted)
		}
		// State bit-identity makes the post-round SoC statistics trivially
		// equal too; pin it anyway since callers sample them after a sweep.
		fm, fmin, fd := fused.SoCStats(nil)
		sm, smin, sd := staged.SoCStats(nil)
		if fm != sm || fmin != smin || fd != sd {
			t.Fatalf("round %d: SoCStats diverge after sweep: (%v, %v, %d) vs (%v, %v, %d)",
				r, fm, fmin, fd, sm, smin, sd)
		}
		for i := 0; i < fused.Nodes(); i++ {
			if fused.ChargeWh(i) != staged.ChargeWh(i) {
				t.Fatalf("round %d node %d: sweep charge %v, staged %v", r, i, fused.ChargeWh(i), staged.ChargeWh(i))
			}
			if fused.NodeConsumedWh(i) != staged.NodeConsumedWh(i) || fused.NodeHarvestedWh(i) != staged.NodeHarvestedWh(i) ||
				fused.wasted[i] != staged.wasted[i] {
				t.Fatalf("round %d node %d: sweep ledgers diverge", r, i)
			}
		}
		for i, v := range fused.RoundArrivedWh() {
			if v != staged.RoundArrivedWh()[i] {
				t.Fatalf("round %d node %d: sweep arrived %v, staged %v", r, i, v, staged.RoundArrivedWh()[i])
			}
		}
	}
	if fused.Consumed() != staged.Consumed() {
		t.Fatal("Consumed diverges between sweep and staged drive")
	}
}

// TestSweepParallelMatchesSerial pins SweepThreshold's GOMAXPROCS
// independence: state and statistics must be bit-identical at GOMAXPROCS 1
// and 8.
func TestSweepParallelMatchesSerial(t *testing.T) {
	const nodes = 4096
	run := func(procs int) ([]float64, []SweepStats) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		trace, err := NewDiurnal(0.01, 8, LongitudePhase(nodes))
		if err != nil {
			t.Fatal(err)
		}
		devices := energy.AssignDevices(nodes, energy.Devices())
		f, err := NewFleet(devices, energy.CIFAR10Workload(), trace,
			Options{CapacityRounds: 5, InitialSoC: 0.6, CutoffSoC: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		var stats []SweepStats
		for r := 0; r < 10; r++ {
			stats = append(stats, f.SweepThreshold(r, 0.3))
		}
		return f.SoCs(), stats
	}
	socSerial, statsSerial := run(1)
	socParallel, statsParallel := run(8)
	for i := range socSerial {
		if socSerial[i] != socParallel[i] {
			t.Fatalf("node %d SoC diverges across GOMAXPROCS: %v vs %v", i, socSerial[i], socParallel[i])
		}
	}
	for r := range statsSerial {
		if statsSerial[r] != statsParallel[r] {
			t.Fatalf("round %d SweepStats diverge across GOMAXPROCS: %+v vs %+v", r, statsSerial[r], statsParallel[r])
		}
	}
}

// sweepAll is a threshold every state of charge exceeds: every node attempts
// to train, as driveFleet's greedy TryTrain loop does.
const sweepAll = -1

// driveSweep mirrors driveFleet through SweepThreshold: greedy training,
// returning the per-round (trained count, mean SoC) trajectory fingerprint.
func driveSweep(f *Fleet, rounds int) (trained []int, meanSoC []float64) {
	for t := 0; t < rounds; t++ {
		trained = append(trained, f.SweepThreshold(t, sweepAll).Trained)
		mean, _, _ := f.SoCStats(nil)
		meanSoC = append(meanSoC, mean)
	}
	return trained, meanSoC
}

// TestSoAFleetResetAfterPartialRound resets a swept fleet that was left
// mid-round — mid-grid-cell abandonment — and requires the replay to be
// bit-identical from the start. ("SoA" in these names dates from when the
// sweep was a separate engine.)
func TestSoAFleetResetAfterPartialRound(t *testing.T) {
	trace, err := NewMarkovOnOff(8, 0.004, 0.3, 0.3, 99)
	if err != nil {
		t.Fatal(err)
	}
	f := testFleet(t, trace, Options{CapacityRounds: 6, InitialSoC: 0.5})
	soc0 := f.SoCs()
	trained1, soc1 := driveSweep(f, 12)
	// Leave the fleet mid-round: extra training drain after the last
	// close-out, so Reset must also rewind uncommitted TryTrain spending.
	f.TryTrain(0)
	f.TryTrain(3)
	if err := f.Reset(); err != nil {
		t.Fatal(err)
	}
	if f.Consumed() {
		t.Fatal("fleet still consumed after Reset")
	}
	if f.HarvestedWh() != 0 || f.ConsumedWh() != 0 || f.WastedWh() != 0 {
		t.Fatalf("ledgers not zeroed: harvested %v consumed %v wasted %v",
			f.HarvestedWh(), f.ConsumedWh(), f.WastedWh())
	}
	for i, s := range f.SoCs() {
		if s != soc0[i] {
			t.Fatalf("node %d SoC %v after Reset, want initial %v", i, s, soc0[i])
		}
	}
	trained2, soc2 := driveSweep(f, 12)
	for i := range trained1 {
		if trained1[i] != trained2[i] || soc1[i] != soc2[i] {
			t.Fatalf("round %d differs after Reset: (%d, %v) vs (%d, %v)",
				i, trained1[i], soc1[i], trained2[i], soc2[i])
		}
	}
}

// TestSoAFleetResetTraceHandling: after a sweep, stateless traces reset
// fine, and a stateful trace without TraceResetter — read once per node by
// the sweep's close-out — must refuse.
func TestSoAFleetResetTraceHandling(t *testing.T) {
	for _, trace := range []Trace{Constant{Wh: 0.001}, mustDiurnal(t), mustReplay(t)} {
		f := testFleet(t, trace, Options{CapacityRounds: 6, InitialSoC: 0.5})
		f.SweepThreshold(0, sweepAll)
		if err := f.Reset(); err != nil {
			t.Fatalf("%s: %v", trace.Name(), err)
		}
	}
	trace := &statefulTrace{}
	f := testFleet(t, trace, Options{CapacityRounds: 6, InitialSoC: 0.5})
	f.SweepThreshold(0, sweepAll)
	if trace.calls != f.Nodes() {
		t.Fatalf("the sweep read the trace %d times for %d nodes", trace.calls, f.Nodes())
	}
	if err := f.Reset(); err == nil {
		t.Fatal("Reset accepted a stateful, non-resettable trace")
	}
}
