package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"
)

// metricDef declares one metric: its unit, which direction is better, and
// — for end-to-end metrics — the share of the parent's median by which it
// may worsen before a change counts as a regression. BENCHMARK.json
// repeats this table for the driver; bench_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is measured with tracing off, the same four for every workload.
// setup_s is a minimum: on a shared host a slow neighbour only ever adds
// time, so the fastest of hundreds of repetitions is the estimator that
// repeats within a run. Between runs the host itself changes speed by up
// to 20% for minutes at a time, which no estimator removes; the driver's
// contract requires setup_s and asks that it carry the largest bound, so it
// is the one metric bounded above 10%. A unit's wall time meets the same
// host and is not required, so it is reported by the traced run as
// runtime.unit_s and carries no bound (see README.md).
// final_acc_pct is taken on the pinned seed accSeed, not on -seed: accuracy
// is exact for one seed but moves 10-19% between seeds, and a bound is
// compared across runs on different seeds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb_per_unit", "MB", "lower", 0.02},
	{"allocs_per_unit", "count", "lower", 0.02},
	{"final_acc_pct", "%", "higher", 0.03},
}

// accSeed is the seed final_acc_pct is measured on.
const accSeed = 42

// perLayer is printed by the traced run (-trace 1). README.md says which
// end-to-end metric each one should move, on which workload.
var perLayer = []metricDef{
	// Training kernels at the Γ-grid cell's shapes (LogReg 32→10, batch 16).
	{"tensor.matvec_ns", "ns", "lower", 0},
	{"tensor.outeracc_ns", "ns", "lower", 0},
	{"nn.train_batch_ns_per_sample", "ns", "lower", 0},
	{"nn.train_batch_allocs", "count", "lower", 0},
	{"nn.softmax_xent_ns", "ns", "lower", 0},
	{"nn.accuracy_ns_per_sample", "ns", "lower", 0},
	{"dataset.batcher_next_ns", "ns", "lower", 0},
	// Share/aggregate kernels at sync_wide_mlp's shapes (44 042 floats).
	{"tensor.axpy_gbps", "GB/s", "higher", 0},
	{"nn.copy_params_gbps", "GB/s", "higher", 0},
	{"transport.local_send_gbps", "GB/s", "higher", 0},
	{"nn.mlp_train_batch_ns_per_sample", "ns", "lower", 0},
	{"tensor.mattvec_ns", "ns", "lower", 0},
	{"transport.local_send_recv_ns", "ns", "lower", 0},
	// Round phases of one probed sim.Run.
	{"sim.liveset_share", "share", "lower", 0},
	{"sim.train_share", "share", "lower", 0},
	{"sim.share_share", "share", "lower", 0},
	{"sim.aggregate_share", "share", "lower", 0},
	{"sim.battery_share", "share", "lower", 0},
	{"sim.eval_share", "share", "lower", 0},
	{"sim.self_share", "share", "lower", 0},
	{"sim.round_us", "us", "lower", 0},
	// The grid runner and the constructors behind every set-up.
	{"experiments.cells", "count", "higher", 0},
	{"experiments.cell_ms_p50", "ms", "lower", 0},
	{"experiments.cell_ms_max", "ms", "lower", 0},
	{"experiments.grid_self_share", "share", "lower", 0},
	{"dataset.generate_ms", "ms", "lower", 0},
	{"graph.build_ms", "ms", "lower", 0},
	{"harvest.engine_build_ms", "ms", "lower", 0},
	// The sweep service: store, codec and wire.
	{"sweep.hits", "count", "higher", 0},
	{"sweep.misses", "count", "lower", 0},
	{"sweep.shared", "count", "lower", 0},
	{"sweep.hit_ratio", "ratio", "higher", 0},
	{"sweep.mem_get_ns", "ns", "lower", 0},
	{"sweep.file_get_us", "us", "lower", 0},
	{"sweep.put_us", "us", "lower", 0},
	{"sweep.request_ms_p50", "ms", "lower", 0},
	{"sweep.request_ms_p99", "ms", "lower", 0},
	{"sweep.reply_bytes", "B", "lower", 0},
	{"sweep.wire_bytes_per_request", "B", "lower", 0},
	{"sweep.cold_fill_s", "s", "lower", 0},
	{"transport.packbytes_gbps", "GB/s", "higher", 0},
	{"transport.marshal_gbps", "GB/s", "higher", 0},
	{"transport.unmarshal_gbps", "GB/s", "higher", 0},
	// The event-driven engine.
	{"async.ns_per_step", "ns", "lower", 0},
	{"async.alloc_b_per_step", "B", "lower", 0},
	{"async.steps", "count", "higher", 0},
	{"async.brownouts", "count", "lower", 0},
	{"async.gossips_sent", "count", "higher", 0},
	{"async.dropped_gossips", "count", "lower", 0},
	{"async.last_half_step_share", "share", "higher", 0},
	// The two round-based fleet engines the ROADMAP wants merged.
	{"harvest.pointer_ns_per_node_round", "ns", "lower", 0},
	{"harvest.soa_ns_per_node_round", "ns", "lower", 0},
	// Fan-out, tracing cost, and the run-level numbers too noisy to bound.
	{"par.for_overhead_ns", "ns", "lower", 0},
	{"par.grid_speedup_2w", "x", "higher", 0},
	{"obs.trace_overhead_share", "share", "lower", 0},
	{"runtime.unit_s", "s", "lower", 0},
	{"runtime.unit_s_p50", "s", "lower", 0},
	{"runtime.unit_s_max", "s", "lower", 0},
	{"runtime.units", "count", "higher", 0},
	{"runtime.work_per_s", "1/s", "higher", 0},
	{"runtime.cpu_s_per_unit", "s", "lower", 0},
	{"runtime.gc_cycles_per_unit", "count", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},
}

// lookupMetric finds a metric's declaration in either table.
func lookupMetric(name string) (metricDef, bool) {
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects values by name; set panics on a name no table declares,
// so a typo cannot silently drop a metric from the report.
type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	d, ok := lookupMetric(name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: d.Unit}
}

// result is what the driver reads from the last line of a run: exactly
// these four keys.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// record is one run of one workload — the line -out appends and -compare
// reads: the driver's result plus what identifies the run.
type record struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Trace    int      `json:"trace"`
	Notes    []string `json:"notes,omitempty"`
	result
}

// unitResult is what one unit of work reports back to the harness.
type unitResult struct {
	// digest covers every simulated number the unit produced; all units of
	// a run must agree with the warm-up unit bit for bit.
	digest [sha256.Size]byte
	acc    float64 // the workload's headline accuracy, %
	work   float64 // node-rounds, requests or steps done
	// ops and failedOps count operations inside the unit (sweepd_warm's
	// requests). ops == 0 means the unit itself is the one operation.
	ops, failedOps int
	notes          []string
}

// workload is one closed loop of one caller. setUp and close bracket the
// state the units run on and are what setup_s times; unit must be
// repeatable on that state and deterministic for a fixed seed.
type workload interface {
	name() string
	// setUp performs one repetition of the workload's set-up.
	setUp() error
	// unit runs one unit of work, traced when tr is non-nil, and fails if
	// any of the workload's correctness checks does.
	unit(tr *tracer) (unitResult, error)
	// layers derives the workload's per-layer metrics from the spans and
	// counts its traced units left in tr.
	layers(tr *tracer, m metrics)
	// close releases what setUp acquired; a no-op before the first setUp.
	close() error
}

// digester hashes simulated results field by field, bit-exactly.
type digester struct{ buf []byte }

func (d *digester) f64(xs ...float64) {
	for _, x := range xs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(x))
	}
}

func (d *digester) ints(xs ...int) {
	for _, x := range xs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(x))
	}
}

func (d *digester) str(s string) {
	d.ints(len(s))
	d.buf = append(d.buf, s...)
}

func (d *digester) sum() [sha256.Size]byte { return sha256.Sum256(d.buf) }

// runConfig sizes one measurement.
type runConfig struct {
	seconds float64 // how long the timed loop measures
	units   int     // when > 0, run exactly this many timed units instead
	// Set-up is timed in slices of setupSlice spread over the whole run —
	// one before every unit, so a slow spell on the host cannot cover them
	// all — each slice doing as many repetitions as fit and at least one
	// (setupMin in the first), up to setupMax in total.
	setupSlice         time.Duration
	setupMin, setupMax int
}

// minTimedUnits is the fewest timed units a time-bounded run accepts:
// the sizing runs behind README.md's numbers took the best of ten.
const minTimedUnits = 10

// tally counts attempted and failed operations across units. A failed
// operation is never timed as a success: its unit's wall clock is dropped.
type tally struct {
	attempted, failed int
	firstErr          error
}

// runUnit executes one unit, checks it against the warm-up reference, and
// returns its wall clock; ok is false when the unit must not be timed.
func runUnit(w workload, tr *tracer, ref *unitResult, tl *tally) (r unitResult, wall time.Duration, ok bool) {
	runtime.GC() // every unit starts from a collected heap, outside its clock
	start := time.Now()
	r, err := w.unit(tr)
	wall = time.Since(start)
	ops, failed := r.ops, r.failedOps
	if ops == 0 {
		ops = 1
		if err != nil {
			failed = 1
		}
	}
	if err == nil && ref != nil && r.digest != ref.digest {
		err = fmt.Errorf("%s: unit result differs from the warm-up unit's", w.name())
		if failed == 0 {
			failed = 1
		}
	}
	tl.attempted += ops
	tl.failed += failed
	if err != nil && tl.firstErr == nil {
		tl.firstErr = err
	}
	return r, wall, err == nil
}

// setUpTimer keeps the fastest set-up repetition seen so far.
type setUpTimer struct {
	best time.Duration
	reps int
}

// slice times setUp+close repetitions for about cfg.setupSlice (at least
// atLeast of them), then sets up once more, untimed, for units to run on.
func (t *setUpTimer) slice(w workload, cfg runConfig, atLeast int) error {
	if err := w.close(); err != nil {
		return err
	}
	deadline := time.Now().Add(cfg.setupSlice)
	for n := 0; n < atLeast || (t.reps < cfg.setupMax && time.Now().Before(deadline)); n++ {
		start := time.Now()
		if err := w.setUp(); err != nil {
			return err
		}
		if err := w.close(); err != nil {
			return err
		}
		if d := time.Since(start); t.reps == 0 || d < t.best {
			t.best = d
		}
		t.reps++
	}
	return w.setUp()
}

// more reports whether a loop that has done n units since start should do
// another.
func (cfg runConfig) more(n int, start time.Time) bool {
	if cfg.units > 0 {
		return n < cfg.units
	}
	return n < minTimedUnits || time.Since(start).Seconds() < cfg.seconds
}

// pinnedAccuracy runs one unit of the named workload on accSeed, whatever
// -seed is, and returns its headline accuracy: final_acc_pct.
func pinnedAccuracy(name string, o options) (float64, error) {
	o.seed = accSeed
	w, remove, err := newWorkload(name, o)
	if err != nil {
		return 0, err
	}
	defer remove()
	if err := w.setUp(); err != nil {
		return 0, fmt.Errorf("%s: set-up on seed %d: %w", name, accSeed, err)
	}
	defer w.close()
	var tl tally
	r, _, ok := runUnit(w, nil, nil, &tl)
	if !ok {
		return 0, fmt.Errorf("%s: unit on seed %d: %w", name, accSeed, tl.firstErr)
	}
	return r.acc, w.close()
}

// measureEndToEnd is the untraced run: the pinned-seed unit, then on -seed
// one untimed warm-up unit and timed units for o.seconds, each preceded by
// a slice of timed set-up repetitions.
func measureEndToEnd(name string, o options) (*record, error) {
	acc, err := pinnedAccuracy(name, o)
	if err != nil {
		return nil, err
	}
	w, remove, err := newWorkload(name, o)
	if err != nil {
		return nil, err
	}
	defer remove()
	cfg := o.runConfig()
	rec := &record{Workload: name, Seed: o.seed, result: result{Metrics: metrics{}}}
	var setup setUpTimer
	if err := setup.slice(w, cfg, cfg.setupMin); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	defer w.close()

	var tl tally
	ref, _, ok := runUnit(w, nil, nil, &tl)
	if !ok {
		return nil, fmt.Errorf("%s: warm-up unit: %w", name, tl.firstErr)
	}
	tl = tally{} // the warm-up is not a measured operation

	var before, after runtime.MemStats
	var allocBytes, allocs uint64
	var walls []float64
	ran := 0
	for start := time.Now(); cfg.more(ran, start); ran++ {
		if err := setup.slice(w, cfg, 1); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		runtime.ReadMemStats(&before)
		_, wall, ok := runUnit(w, nil, &ref, &tl)
		runtime.ReadMemStats(&after)
		allocBytes += after.TotalAlloc - before.TotalAlloc
		allocs += after.Mallocs - before.Mallocs
		if ok {
			walls = append(walls, wall.Seconds())
		}
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("%s: no unit succeeded: %w", name, tl.firstErr)
	}

	// The fastest unit is printed for the reader; it is not a metric here.
	unitS := slices.Min(walls)
	rec.Notes = append(ref.notes,
		fmt.Sprintf("seed_acc_pct=%.4f setup_reps=%d units=%d unit_s=%.4f work_per_unit=%g work_per_s=%.6g",
			ref.acc, setup.reps, ran, unitS, ref.work, ref.work/unitS))
	rec.Attempted, rec.Failed, rec.Correct = tl.attempted, tl.failed, tl.failed == 0
	if tl.firstErr != nil {
		rec.Notes = append(rec.Notes, "error: "+tl.firstErr.Error())
	}
	rec.Metrics.set("setup_s", setup.best.Seconds())
	rec.Metrics.set("alloc_mb_per_unit", float64(allocBytes)/float64(ran)/1e6)
	rec.Metrics.set("allocs_per_unit", float64(allocs)/float64(ran))
	rec.Metrics.set("final_acc_pct", acc)
	return rec, w.close()
}

// measureTraced is the traced run of the selected workload: untraced and
// traced units alternate so the two share the host's drift. The fastest
// untraced unit is runtime.unit_s and the ratio of the two minima is the
// tracing overhead; the other runtime.* metrics describe the traced units.
// The workload's spans are left in tr for layers to read.
func measureTraced(w workload, cfg runConfig, tr *tracer, m metrics) (tally, error) {
	var tl tally
	tr.label(w.name())
	if err := w.setUp(); err != nil {
		return tl, fmt.Errorf("%s: set-up: %w", w.name(), err)
	}
	defer w.close()
	ref, _, ok := runUnit(w, nil, nil, &tl)
	if !ok {
		return tl, fmt.Errorf("%s: warm-up unit: %w", w.name(), tl.firstErr)
	}
	tl = tally{}

	var plain, traced []float64
	var before, after runtime.MemStats
	cpu := 0.0
	runtime.ReadMemStats(&before)
	for start := time.Now(); cfg.more(len(traced), start); {
		if _, wall, ok := runUnit(w, nil, &ref, &tl); ok {
			plain = append(plain, wall.Seconds())
		}
		cpu0 := processCPUSeconds()
		_, wall, ok := runUnit(w, tr, &ref, &tl)
		cpu += processCPUSeconds() - cpu0
		if !ok {
			return tl, fmt.Errorf("%s: traced unit: %w", w.name(), tl.firstErr)
		}
		traced = append(traced, wall.Seconds())
	}
	runtime.ReadMemStats(&after)
	if len(plain) == 0 {
		return tl, fmt.Errorf("%s: no untraced unit succeeded: %w", w.name(), tl.firstErr)
	}
	n := float64(len(traced))
	m.set("obs.trace_overhead_share", slices.Min(traced)/slices.Min(plain)-1)
	m.set("runtime.unit_s", slices.Min(plain))
	m.set("runtime.unit_s_p50", quantile(traced, 0.5))
	m.set("runtime.unit_s_max", slices.Max(traced))
	m.set("runtime.units", n)
	m.set("runtime.work_per_s", ref.work*n/sum(traced))
	m.set("runtime.cpu_s_per_unit", cpu/n)
	// runUnit forces one collection per unit; the rest are the workload's.
	all := n + float64(len(plain))
	m.set("runtime.gc_cycles_per_unit", (float64(after.NumGC-before.NumGC)-all)/all)
	m.set("runtime.peak_rss_mb", peakRSSMB())
	return tl, w.close()
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
