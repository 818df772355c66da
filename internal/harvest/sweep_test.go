package harvest

import (
	"runtime"
	"testing"

	"repro/internal/energy"
)

// The tests in this file drive a fleet through the fused SweepThreshold
// path — RowTrace bulk fill, lazily allocated scratch, shard merge — the way
// fleet_test.go drives it per node. ("SoA" in a name dates from when that
// path was a separate engine.)

// sweepAll is a threshold every state of charge exceeds: every node attempts
// to train, as driveFleet's greedy TryTrain loop does.
const sweepAll = -1

// driveSweep mirrors driveFleet on the fused path: greedy training,
// returning the per-round (trained count, mean SoC) trajectory fingerprint.
func driveSweep(f *Fleet, rounds int) (trained []int, meanSoC []float64) {
	for t := 0; t < rounds; t++ {
		trained = append(trained, f.SweepThreshold(t, sweepAll).Trained)
		meanSoC = append(meanSoC, f.MeanSoC())
	}
	return trained, meanSoC
}

// TestSoAFleetConsumedByTryTrainOnly: with no idle draw, no communication
// cost and no harvest, a sweep's only energy movement is the training drain
// of the nodes it counted as trained, and that must be what the consumed
// ledger holds — and what Reset clears.
func TestSoAFleetConsumedByTryTrainOnly(t *testing.T) {
	f := testFleet(t, Constant{Wh: 0}, Options{CapacityRounds: 6, InitialSoC: 0.5, CommFrac: -1})
	stats := f.SweepThreshold(0, sweepAll)
	if stats.Trained != f.Nodes() {
		t.Fatalf("trained %d of %d half-full nodes", stats.Trained, f.Nodes())
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

// TestSoAFleetResetAfterPartialRound resets a swept fleet that was left
// mid-round — mid-grid-cell abandonment — and requires the replay to be
// bit-identical from the start.
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

// TestSoAFleetResetRestoresClampedInitialCharge pins that Reset after a
// sweep restores the post-clamp construction charge, not the raw option
// value.
func TestSoAFleetResetRestoresClampedInitialCharge(t *testing.T) {
	f := testFleet(t, Constant{Wh: 0}, Options{CapacityRounds: 4, InitialRounds: 100})
	if f.SoC(0) != 1 {
		t.Fatalf("construction SoC %v, want clamped full", f.SoC(0))
	}
	f.SweepThreshold(0, sweepAll)
	if err := f.Reset(); err != nil {
		t.Fatal(err)
	}
	if f.SoC(0) != 1 {
		t.Fatalf("Reset SoC %v, want clamped full", f.SoC(0))
	}
}

// TestSoAFleetResetTraceHandling: after a sweep, stateless traces reset
// fine, and a stateful trace without TraceResetter — which also has no bulk
// path, so the sweep read it per node — must refuse.
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
		t.Fatalf("sweep read a trace without a bulk path %d times for %d nodes", trace.calls, f.Nodes())
	}
	if err := f.Reset(); err == nil {
		t.Fatal("Reset accepted a stateful, non-resettable trace")
	}
}

// TestSweepMatchesThreePassSequence pins the fusion invariant: one
// SweepThreshold call must leave per-node charge, ledgers, and scratch
// slices bit-identical to the decide-loop + EndRound sequence it replaces,
// with trained, live, and depleted counts exactly matching the staged drive.
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
// independence on a fleet spanning multiple fixed-size shards: state and
// statistics must be bit-identical whether the shards run on one worker or
// eight, because the shard structure is a function of fleet size only and
// partial statistics merge in shard index order.
func TestSweepParallelMatchesSerial(t *testing.T) {
	const nodes = 2*sweepShardSize + 512 // three shards, last one ragged
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

// TestSoAEndRoundParallelMatchesSerial pins the sharded close-out on the
// trace the sweep tests use, where TestEndRoundParallelMatchesSerial uses a
// Markov chain and liveness masks: lowering the parallel threshold must not
// change a bit, and the per-node close-out must never touch the sweep
// scratch.
func TestSoAEndRoundParallelMatchesSerial(t *testing.T) {
	run := func(minNodes int) []float64 {
		old := parallelMinNodes
		parallelMinNodes = minNodes
		defer func() { parallelMinNodes = old }()
		trace, err := NewDiurnal(0.01, 8, LongitudePhase(64))
		if err != nil {
			t.Fatal(err)
		}
		devices := energy.AssignDevices(64, energy.Devices())
		f, err := NewFleet(devices, energy.CIFAR10Workload(), trace,
			Options{CapacityRounds: 5, InitialSoC: 0.6, CutoffSoC: 0.2, IdleWh: 0.0005})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 12; r++ {
			for i := 0; i < f.Nodes(); i++ {
				f.TryTrain(i)
			}
			f.EndRound(r)
		}
		if f.rowBuf != nil || f.shardStats != nil || trace.rows != nil {
			t.Fatal("per-node close-out allocated sweep scratch or warmed the day-row cache")
		}
		return f.SoCs()
	}
	serial := run(1 << 30)
	parallel := run(2)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("node %d SoC diverges serial/parallel: %v vs %v", i, serial[i], parallel[i])
		}
	}
}
