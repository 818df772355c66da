package sim

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/obstest"
)

// Telemetry must be invisible to the simulation: the same run with a probe
// attached produces bit-identical model state and History to the run
// without one, and every streamed round_end is the event derived from its
// round's record.
func TestTelemetryBitIdentical(t *testing.T) {
	run := func(attach bool) (*Result, *obstest.MemorySink) {
		cfg := harvestConfig(t, 6)
		cfg.Rounds = 16
		cfg.EvalGlobalModel = true
		var mem *obstest.MemorySink
		if attach {
			mem = obstest.NewMemory()
			cfg.Probe = obs.NewProbe(mem)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, mem
	}
	plain, _ := run(false)
	probed, mem := run(true)

	if len(plain.FinalGlobalParams) == 0 {
		t.Fatal("no global params to compare")
	}
	for i := range plain.FinalGlobalParams {
		if plain.FinalGlobalParams[i] != probed.FinalGlobalParams[i] {
			t.Fatalf("param %d differs with telemetry on: %v vs %v",
				i, plain.FinalGlobalParams[i], probed.FinalGlobalParams[i])
		}
	}
	if plain.FinalMeanAcc != probed.FinalMeanAcc {
		t.Fatalf("accuracy differs with telemetry on: %v vs %v", plain.FinalMeanAcc, probed.FinalMeanAcc)
	}
	if !reflect.DeepEqual(plain.History, probed.History) {
		t.Fatal("History differs with telemetry on")
	}
	r := 0
	for _, ev := range mem.Events() {
		if ev.Kind != obs.KindRoundEnd {
			continue
		}
		want := roundEnd(plain.History[:r+1])
		want.Kind, want.Node, ev.WallNs = obs.KindRoundEnd, -1, 0
		if ev != want {
			t.Fatalf("round %d: streamed round_end %+v, derived from the record %+v", r, ev, want)
		}
		r++
	}
	if countKind(mem.Events(), obs.KindRunStart) != 1 || countKind(mem.Events(), obs.KindRunEnd) != 1 {
		t.Fatalf("run events: %d start, %d end", countKind(mem.Events(), obs.KindRunStart), countKind(mem.Events(), obs.KindRunEnd))
	}
	if got := countKind(mem.Events(), obs.KindRoundEnd); got != 16 {
		t.Fatalf("round_end events = %d, want 16", got)
	}
	if countKind(mem.Events(), obs.KindPhase) == 0 {
		t.Fatal("no phase events emitted")
	}
	first := mem.Events()[0]
	if first.Kind != obs.KindRunStart || first.Manifest == nil || first.Manifest.ConfigHash == "" {
		t.Fatalf("stream must open with a manifest-carrying run_start, got %+v", first)
	}
}

// Telemetry on, worker width varied: the pinned bit-reproducibility
// guarantee must survive the probe.
func TestTelemetryDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) *Result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cfg := harvestConfig(t, 9)
		cfg.Rounds = 12
		cfg.EvalGlobalModel = true
		cfg.Probe = obs.NewProbe(obstest.NewMemory())
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, wide := run(1), run(8)
	for i := range serial.FinalGlobalParams {
		if serial.FinalGlobalParams[i] != wide.FinalGlobalParams[i] {
			t.Fatalf("param %d differs across GOMAXPROCS with telemetry on", i)
		}
	}
}

// The streamed SoC percentiles are filled on every harvest run, are
// monotone in q, and stay within one sketch bin of the exact percentiles of
// the per-node charge after each round.
func TestSoCQuantilesMatchExact(t *testing.T) {
	cfg := harvestConfig(t, 11)
	cfg.Rounds = 20
	socs := recordSoCs(&cfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	binWidth := 1.0 / obs.SoCBins
	for r, snapshot := range socs(res) {
		m := res.History[r]
		if len(snapshot) != cfg.Graph.N {
			t.Fatalf("round %d: SoC snapshot has %d nodes", m.Round, len(snapshot))
		}
		if math.IsNaN(m.SoCP50) || m.SoCP50 <= 0 {
			t.Fatalf("round %d: streamed P50 = %v, want a real percentile", m.Round, m.SoCP50)
		}
		if m.SoCP50 > m.SoCP90+binWidth || m.SoCP90 > m.SoCP99+binWidth {
			t.Fatalf("round %d: percentiles not monotone: %v %v %v", m.Round, m.SoCP50, m.SoCP90, m.SoCP99)
		}
		sorted := slices.Sorted(slices.Values(snapshot))
		exact := func(q float64) float64 {
			return sorted[max(int(math.Ceil(q*float64(len(sorted)))), 1)-1]
		}
		for _, c := range []struct {
			q    float64
			got  float64
			name string
		}{
			{0.50, m.SoCP50, "P50"},
			{0.90, m.SoCP90, "P90"},
			{0.99, m.SoCP99, "P99"},
		} {
			if math.Abs(c.got-exact(c.q)) > binWidth {
				t.Fatalf("round %d: streamed %s = %v, exact %v, off by more than one bin",
					m.Round, c.name, c.got, exact(c.q))
			}
		}
	}
}

// A plain harvest run, with no hook reading per-node charge, still fills
// the streamed percentiles of every round, monotone in q, and records the
// final per-node charge.
func TestSoCPercentilesStreamedEveryRound(t *testing.T) {
	cfg := harvestConfig(t, 13)
	cfg.Rounds = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.History {
		if math.IsNaN(m.SoCP50) || m.SoCP50 <= 0 {
			t.Fatalf("round %d: streamed P50 = %v, want a real percentile", m.Round, m.SoCP50)
		}
		if m.SoCP50 > m.SoCP90+1.0/obs.SoCBins || m.SoCP90 > m.SoCP99+1.0/obs.SoCBins {
			t.Fatalf("round %d: percentiles not monotone: %v %v %v", m.Round, m.SoCP50, m.SoCP90, m.SoCP99)
		}
	}
	if len(res.FinalSoC) != cfg.Graph.N {
		t.Fatalf("FinalSoC has %d nodes, want %d", len(res.FinalSoC), cfg.Graph.N)
	}
}

// Every result carries a manifest whose hash is stable across identical
// runs and sensitive to the seed.
func TestResultManifestStamped(t *testing.T) {
	run := func(seed uint64) *Result {
		cfg := harvestConfig(t, seed)
		cfg.Rounds = 4
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(6), run(6), run(7)
	if a.Manifest.Engine != "sim" || a.Manifest.ConfigHash == "" {
		t.Fatalf("bad manifest: %+v", a.Manifest)
	}
	if a.Manifest.ConfigHash != b.Manifest.ConfigHash {
		t.Fatal("identical runs produced different config hashes")
	}
	if a.Manifest.ConfigHash == c.Manifest.ConfigHash {
		t.Fatal("different seeds share a config hash")
	}
	if a.Manifest.Nodes != 8 || a.Manifest.Rounds != 4 {
		t.Fatalf("manifest scale: %d nodes, %d rounds", a.Manifest.Nodes, a.Manifest.Rounds)
	}
}

// Every round_end on a harvest run must carry the per-round energy ledger,
// and the ledger must conserve: prevCharge + harvested - consumed - wasted
// equals the new fleet charge within analyze.EnergyTol — on a fresh fleet
// ("pointer") and on one that first ran four threshold rounds and was Reset
// ("soa"); the subtest names predate the merge of the two fleet engines.
func TestRoundEndEnergyLedgerConserves(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*testing.T, uint64) Config
	}{{"pointer", harvestConfig}, {"soa", rewoundHarvestConfig}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.build(t, 17)
			cfg.Rounds = 16
			mem := obstest.NewMemory()
			cfg.Probe = obs.NewProbe(mem)
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}

			first := mem.Events()[0]
			if first.Kind != obs.KindRunStart || first.ChargeWh <= 0 {
				t.Fatalf("run_start must carry the initial fleet charge, got %+v", first)
			}
			prev := first.ChargeWh
			var cumHarvest, cumConsumed, cumWasted float64
			rounds := 0
			for _, ev := range mem.Events() {
				if ev.Kind != obs.KindRoundEnd {
					continue
				}
				rounds++
				if ev.HarvestWh < 0 || ev.ConsumedWh < 0 || ev.WastedWh < 0 {
					t.Fatalf("round %d: negative energy total: %+v", ev.Round, ev)
				}
				cumHarvest += ev.HarvestWh
				cumConsumed += ev.ConsumedWh
				cumWasted += ev.WastedWh
				residual := prev + ev.HarvestWh - ev.ConsumedWh - ev.WastedWh - ev.ChargeWh
				if tol := analyze.EnergyTol(cumHarvest, cumConsumed, cumWasted, ev.ChargeWh); math.Abs(residual) > tol {
					t.Fatalf("round %d: conservation residual %g exceeds tolerance %g", ev.Round, residual, tol)
				}
				prev = ev.ChargeWh
			}
			if rounds != cfg.Rounds {
				t.Fatalf("saw %d energy-bearing round_ends, want %d", rounds, cfg.Rounds)
			}
			if cumHarvest <= 0 || cumConsumed <= 0 {
				t.Fatalf("diurnal fleet ledger empty: harvest %g, consumed %g", cumHarvest, cumConsumed)
			}
		})
	}
}

// countKind counts the events of the given kind.
func countKind(events []obs.Event, kind string) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}
