package harvest

import "repro/internal/par"

// SweepStats summarizes one fused SweepThreshold round. All counts are
// exact and independent of GOMAXPROCS. SoC distribution statistics are
// deliberately not accumulated here — the per-node division they cost would
// dominate the fused loop; call SoCStats (streaming into an obs sketch if
// wanted) at whatever cadence the caller actually samples them.
type SweepStats struct {
	// Trained counts nodes whose pre-round SoC exceeded the threshold and
	// whose battery could afford the round.
	Trained int
	// Live and Depleted split the fleet by post-round cutoff state.
	Live     int
	Depleted int
}

// sweepShardSize fixes the sweep shard width independently of GOMAXPROCS:
// per-shard partial counts merged in shard index order give the same
// result whether the shards ran on one worker or eight.
const sweepShardSize = 4096

// sweepShard is one shard's statistics accumulator; shards only ever write
// their own slot.
type sweepShard struct {
	trained  int
	depleted int
}

// SweepThreshold fuses one whole round under the paper's SoC-threshold
// participation rule into a single pass per node: the decision (node i
// attempts to train iff its pre-round state of charge exceeds minSoC), the
// training drain, the idle+communication draw, the harvest with its ledger
// updates, and the post-round liveness count. It is exactly equivalent to
//
//	for i := range nodes { if SoC(i) > minSoC { TryTrain(i) } }
//	EndRound(t)
//	_, _, depleted := SoCStats(nil)
//
// with per-node charge, ledgers, and scratch slices bit-identical to that
// three-pass sequence — the same kernel calls in the same order. Every node
// pays its communication draw (EndRound semantics; drive EndRoundLive
// directly for dead-radio accounting).
//
// This is the million-node path (examples/millionnode,
// BenchmarkSoAFleetRound), so unlike EndRound it reads the trace through
// the RowTrace bulk fill when the trace has one. The pass runs serially
// below parallelMinNodes nodes and shards across workers above it — in
// fixed sweepShardSize ranges with stats merged in shard order, so results
// are independent of GOMAXPROCS. After the first call, which allocates the
// row buffer and shard accumulators, it allocates nothing.
func (f *Fleet) SweepThreshold(t int, minSoC float64) SweepStats {
	n := len(f.chargeWh)
	shards := (n + sweepShardSize - 1) / sweepShardSize
	rt, bulk := f.trace.(RowTrace)
	if f.shardStats == nil {
		f.shardStats = make([]sweepShard, shards)
		if bulk {
			f.rowBuf = make([]float64, n)
		}
	}
	// RowTrace is single-goroutine by contract: fill the round's row first,
	// then let the shards read it.
	if bulk {
		rt.HarvestRowWh(t, f.rowBuf)
	}
	if n < parallelMinNodes || shards < 2 {
		for s := 0; s < shards; s++ {
			f.sweepThresholdShardRange(t, s, minSoC)
		}
	} else {
		par.For(shards, 1, func(s int) {
			f.sweepThresholdShardRange(t, s, minSoC)
		})
	}
	// Close the round and merge the per-shard counts in shard index order,
	// so totals are independent of how the shards were scheduled.
	f.roundsClosed++
	var stats SweepStats
	for _, sh := range f.shardStats {
		stats.Trained += sh.trained
		stats.Depleted += sh.depleted
	}
	stats.Live = n - stats.Depleted
	return stats
}

// sweepThresholdShardRange runs the fused per-node pass over shard s's node
// range and records the shard's partial statistics in its own slot.
func (f *Fleet) sweepThresholdShardRange(t, s int, minSoC float64) {
	lo := s * sweepShardSize
	hi := min(lo+sweepShardSize, len(f.chargeWh))
	// Subslice every array to the shard window so all loop indexing is
	// provably in bounds (bounds-check elimination).
	n := hi - lo
	charge := f.chargeWh[lo:hi]
	capacity := f.capacityWh[lo:hi]
	cutoff := f.cutoffWh[lo:hi]
	train := f.trainWh[lo:hi]
	comm := f.commWh[lo:hi]
	consumed := f.consumed[lo:hi]
	harvested := f.harvested[lo:hi]
	wasted := f.wasted[lo:hi]
	roundHarvest := f.roundHarvest[lo:hi]
	roundArrived := f.roundArrived[lo:hi]
	var row []float64 // nil: the trace has no bulk path, read it per node
	if f.rowBuf != nil {
		row = f.rowBuf[lo:hi]
	}
	idle := f.idleWh
	var sh sweepShard
	for j := 0; j < n; j++ {
		c := charge[j]
		// Participation decision + training drain (TryTrain).
		if c/capacity[j] > minSoC {
			if left, ok := tryConsume(c, cutoff[j], train[j]); ok {
				c = left
				consumed[j] += train[j]
				sh.trained++
			}
		}
		// Idle + communication draw, then harvest (EndRound).
		c, drained := drain(c, idle+comm[j])
		var arrived float64
		if row != nil {
			arrived = row[j]
		} else {
			arrived = f.trace.HarvestWh(lo+j, t)
		}
		c, stored := store(c, capacity[j], arrived)
		charge[j] = c
		// Guarded read-modify-writes: adding 0.0 is a bitwise no-op on the
		// non-negative ledgers, and skipping it avoids the loads and stores
		// on a node that moved no energy.
		if drained != 0 {
			consumed[j] += drained
		}
		if stored != 0 {
			harvested[j] += stored
		}
		if d := arrived - stored; d != 0 {
			wasted[j] += d
		}
		roundHarvest[j] = stored
		roundArrived[j] = arrived
		// Post-round liveness.
		if !(c > cutoff[j]) {
			sh.depleted++
		}
	}
	f.shardStats[s] = sh
}
