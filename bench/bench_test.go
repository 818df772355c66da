package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// tinySizes shrinks every workload and probe to a smoke that finishes in
// a few seconds and is safe under -short and -race. The async horizon stays
// at 24 trace rounds: an 8-node fleet stops stepping soon after (the engine
// liveness defect README.md describes), which the workload's own check
// rejects.
var tinySizes = sizes{
	gridNodes: 8, gridRounds: 4,
	mlpNodes: 8, mlpHidden: 16, mlpRounds: 8,
	sweepNodes: 8, sweepRounds: 2, sweepRequests: 3,
	asyncNodes: 8, asyncTraceRounds: 24, asyncRuns: 2,
	setupMin: 2, setupMax: 4,
	units:        2,
	probeReps:    1,
	pointerNodes: 50, pointerRounds: 30,
	soaNodes: 5000, soaRounds: 24, fleetReps: 1,
}

func tinyOptions(t *testing.T, workload string, trace int) options {
	return options{
		workload: workload, seed: 42, seconds: 1, trace: trace,
		tmpRoot: t.TempDir(), sizes: tinySizes,
	}
}

// TestEndToEndMetricsEmitted runs every workload untraced at smoke scale
// and requires exactly the four end-to-end metrics, each with its unit,
// none of them zero, and every operation attempted and none failed.
func TestEndToEndMetricsEmitted(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, name := range workloadNames {
		rec, err := measureEndToEnd(name, tinyOptions(t, name, 0))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 2 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, rec.Correct, rec.Attempted, rec.Failed)
		}
		if len(rec.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", name, len(rec.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			got, ok := rec.Metrics[d.Name]
			if !ok || got.Unit != d.Unit || !(got.Value > 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", name, d.Name, got, ok, d.Unit)
			}
		}
	}
}

// TestTracedRunEmitsEveryLayerMetric runs the traced mode for two
// selections — sync_wide_mlp, whose own units feed the sim.* shares, and
// sweepd_warm, where a probed cell does — and requires every per-layer
// name with its unit, phase shares that add up, and a written span file.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, name := range []string{"sync_wide_mlp", "sweepd_warm"} {
		o := tinyOptions(t, name, 1)
		rec, tr, err := tracedRun(name, o.sizes, o.seed, o.runConfig(), o.tmpRoot)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rec.Correct || rec.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", name, rec.Correct, rec.Failed)
		}
		if len(rec.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", name, len(rec.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			if got, ok := rec.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v (present %v), want unit %s", name, d.Name, got, ok, d.Unit)
			}
		}
		shares := 0.0
		for _, ph := range simPhases {
			shares += rec.Metrics["sim."+ph+"_share"].Value
		}
		if self := rec.Metrics["sim.self_share"].Value; shares > 1 || self < 0 || self > 1 {
			t.Errorf("%s: phase shares sum to %v with self share %v", name, shares, self)
		}
		if v := rec.Metrics["sweep.hit_ratio"].Value; v != 1 {
			t.Errorf("%s: warm hit ratio %v, want 1", name, v)
		}
		if v := rec.Metrics["async.last_half_step_share"].Value; !(v > 0) {
			t.Errorf("%s: async.last_half_step_share %v, want > 0", name, v)
		}
		path := filepath.Join(o.tmpRoot, "spans.json")
		if err := tr.write(path); err != nil {
			t.Fatal(err)
		}
		var dump struct {
			Spans []span `json:"spans"`
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &dump); err != nil || len(dump.Spans) == 0 {
			t.Fatalf("%s: span file unreadable or empty: %v", name, err)
		}
		for _, s := range dump.Spans {
			if s.Name == "" || s.Workload == "" || s.EndNs < s.StartNs || s.Parent >= s.ID {
				t.Fatalf("%s: malformed span %+v", name, s)
			}
		}
	}
}

// TestRunPrintsDriverResult drives the command line the way the driver
// does and checks the last stdout line has exactly the contract's keys,
// that the fixture directory is gone, and that no goroutine is left.
func TestRunPrintsDriverResult(t *testing.T) {
	tmp := t.TempDir()
	out := filepath.Join(tmp, "records.jsonl")
	before := runtime.NumGoroutine()
	var stdout, stderr bytes.Buffer
	code := run(tinySizes, []string{
		"--workload", "sweepd_warm", "--seed", "7", "--seconds", "1", "--trace", "0",
		"--tmp", tmp, "--out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var result map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(result))
	for k := range result {
		keys = append(keys, k)
	}
	if len(keys) != 4 || result["correct"] == nil || result["attempted"] == nil || result["failed"] == nil || result["metrics"] == nil {
		t.Errorf("driver result has keys %v", keys)
	}
	if recs, err := readRecords(out); err != nil || len(recs) != 1 || recs[0].Workload != "sweepd_warm" || recs[0].Seed != 7 {
		t.Errorf("-out records = %+v, %v", recs, err)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if e.IsDir() {
			t.Errorf("fixture directory %s not removed", e.Name())
		}
	}
	if err := settled(before); err != nil {
		t.Error(err)
	}
	if code := run(tinySizes, []string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

// TestChecksFireOnCorruptedResults corrupts one field of an otherwise
// valid result per workload and requires the workload's check to object.
func TestChecksFireOnCorruptedResults(t *testing.T) {
	rows := make([]experiments.GammaHarvestRow, 5)
	for i, regime := range []string{"fixed-budget", "diurnal-lo", "diurnal-hi", "markov-lo", "markov-hi"} {
		rows[i] = experiments.GammaHarvestRow{Regime: regime, Best: experiments.GammaHarvestCell{
			GammaTrain: 1, GammaSync: 3, FinalAcc: 60, Participation: 80, HarvestedWh: 0.5, WastedFrac: 0.1,
		}}
	}
	rows[0].Best.HarvestedWh = 0
	if err := checkGridRows(rows); err != nil {
		t.Fatalf("valid rows rejected: %v", err)
	}
	for name, corrupt := range map[string]func([]experiments.GammaHarvestRow){
		"wasted fraction above 1":   func(r []experiments.GammaHarvestRow) { r[2].Best.WastedFrac = 1.5 },
		"participation above 100":   func(r []experiments.GammaHarvestRow) { r[1].Best.Participation = 101 },
		"harvest under fixed":       func(r []experiments.GammaHarvestRow) { r[0].Best.HarvestedWh = 0.1 },
		"no harvest under a trace":  func(r []experiments.GammaHarvestRow) { r[3].Best.HarvestedWh = 0 },
		"not-a-number wasted share": func(r []experiments.GammaHarvestRow) { r[4].Best.WastedFrac = nan() },
	} {
		bad := append([]experiments.GammaHarvestRow(nil), rows...)
		corrupt(bad)
		if checkGridRows(bad) == nil {
			t.Errorf("grid check accepted: %s", name)
		}
	}
	if checkGridRows(rows[:4]) == nil {
		t.Error("grid check accepted a missing regime")
	}

	good := &sim.Result{TrainedRounds: []int{2, 2, 2, 2}, FinalMeanAcc: 0.4}
	if err := checkSyncResult(good, 8); err != nil {
		t.Fatalf("valid sync result rejected: %v", err)
	}
	if checkSyncResult(&sim.Result{TrainedRounds: []int{2, 2, 2, 1}, FinalMeanAcc: 0.4}, 8) == nil {
		t.Error("sync check accepted a missed train round")
	}
	if checkSyncResult(&sim.Result{TrainedRounds: []int{2, 2, 2, 2}, FinalMeanAcc: 0.09}, 8) == nil {
		t.Error("sync check accepted chance-level accuracy")
	}

	cold := []byte(`[{"Regime":"fixed-budget"}]`)
	hits := sweep.Stats{Cells: 80, Hits: 80}
	if err := checkReply(cold, hits, cold); err != nil {
		t.Fatalf("valid reply rejected: %v", err)
	}
	if checkReply(cold, sweep.Stats{Cells: 80, Hits: 79, Misses: 1}, cold) == nil {
		t.Error("reply check accepted a recomputed cell")
	}
	if checkReply([]byte(`[{"Regime":"fixed-budgeT"}]`), hits, cold) == nil {
		t.Error("reply check accepted a payload that differs from the cold fill's")
	}

	run := func(steps, half, brownouts int) *async.Result {
		return &async.Result{
			StepsPerNode: []int{steps}, Brownouts: brownouts,
			History: []async.Snapshot{{StepsTotal: half}, {StepsTotal: steps}},
		}
	}
	if err := checkAsyncRun(run(100, 60, 3)); err != nil {
		t.Fatalf("valid async run rejected: %v", err)
	}
	for name, bad := range map[string]*async.Result{
		"idle loop":         run(0, 0, 3),
		"no brown-outs":     run(100, 60, 0),
		"frozen after half": run(100, 100, 3),
	} {
		if checkAsyncRun(bad) == nil {
			t.Errorf("async check accepted: %s", name)
		}
	}

	// A unit whose numbers differ from the warm-up unit's is a failed
	// operation and is not timed.
	w := &flippingWorkload{}
	var tl tally
	ref, _, ok := runUnit(w, nil, nil, &tl)
	if !ok {
		t.Fatal("reference unit failed")
	}
	if _, _, ok := runUnit(w, nil, &ref, &tl); ok || tl.failed != 1 || tl.attempted != 2 {
		t.Errorf("a differing unit passed: ok=%v tally=%+v", ok, tl)
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}

// flippingWorkload returns a different digest on every unit.
type flippingWorkload struct{ n int }

func (f *flippingWorkload) name() string            { return "flipping" }
func (f *flippingWorkload) setUp() error            { return nil }
func (f *flippingWorkload) layers(*tracer, metrics) {}
func (f *flippingWorkload) close() error            { return nil }
func (f *flippingWorkload) unit(*tracer) (unitResult, error) {
	f.n++
	var d digester
	d.ints(f.n)
	return unitResult{digest: d.sum(), acc: 50, work: 1}, nil
}

// TestCompareFlagsShiftBeyondBound: between two otherwise tight sets, a
// synthetic 15% shift of allocs_per_unit (bound 2%) or a 30% shift of
// setup_s (bound 25%) is "worse" and fails the comparison, a 15% or 2%
// setup_s shift passes, a gain passes, a set whose own spread exceeds the
// bound is "noisy", and unbounded metrics are only reported.
func TestCompareFlagsShiftBeyondBound(t *testing.T) {
	set := func(allocs float64, setupS ...float64) []record {
		var recs []record
		for _, v := range setupS {
			m := metrics{}
			m.set("setup_s", v)
			m.set("allocs_per_unit", allocs)
			m.set("runtime.unit_s", 100*v)
			recs = append(recs, record{Workload: "grid_cold", result: result{Correct: true, Attempted: 10, Metrics: m}})
		}
		return recs
	}
	scaled := func(k float64) []record { return set(816435, 2.50*k, 2.52*k, 2.51*k, 2.55*k, 2.50*k) }
	status := func(a, b []record) map[string]string {
		out := map[string]string{}
		for _, v := range compareSets(a, b) {
			out[v.Metric] = v.Status
		}
		return out
	}
	base := scaled(1)
	if got := status(base, scaled(1.30)); got["setup_s"] != "worse" || got["allocs_per_unit"] != "ok" || got["runtime.unit_s"] != "info" {
		t.Errorf("30%% shift: %v", got)
	}
	for _, k := range []float64{1.15, 1.02, 0.70} {
		if got := status(base, scaled(k)); got["setup_s"] != "ok" {
			t.Errorf("setup_s scaled by %v: %v", k, got)
		}
	}
	if got := status(base, set(816435*1.15, 2.50, 2.52, 2.51, 2.55, 2.50)); got["allocs_per_unit"] != "worse" || got["setup_s"] != "ok" {
		t.Errorf("15%% more allocations: %v", got)
	}
	if got := status(base, set(816435*1.01, 2.50, 2.52, 2.51, 2.55, 2.50)); got["allocs_per_unit"] != "ok" {
		t.Errorf("1%% more allocations: %v", got)
	}
	if got := status(base, set(816435, 2.0, 2.5, 3.6, 2.2, 3.4)); got["setup_s"] != "noisy" {
		t.Errorf("wide set: %v", got)
	}

	// End to end through the files -out writes.
	dir := t.TempDir()
	write := func(name string, recs []record) string {
		var buf bytes.Buffer
		for _, r := range recs {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(b, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, slow, near := write("a.jsonl", base), write("slow.jsonl", scaled(1.30)), write("near.jsonl", scaled(1.02))
	var stdout, stderr bytes.Buffer
	if code := run(tinySizes, []string{"-compare", a, slow}, &stdout, &stderr); code != 1 || !strings.Contains(stdout.String(), "worse") {
		t.Errorf("30%% shift: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := run(tinySizes, []string{"-compare", a, near}, &stdout, &stderr); code != 0 {
		t.Errorf("2%% shift: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v %v %v, want 1.5 4 12", q1, med, q3)
	}
}

// TestBenchmarkJSONMatchesHarness keeps the driver's contract file in step
// with the tables the harness reports from.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloadNames)
	}
	same := func(kind string, got []decl, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
