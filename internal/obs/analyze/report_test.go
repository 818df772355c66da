package analyze

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestReportReconstructsRun(t *testing.T) {
	rep := FromEvents(cleanStream())
	if rep.Runs != 1 || rep.Rounds != 2 || rep.Events != len(cleanStream()) {
		t.Fatalf("shape: %+v", rep)
	}
	if rep.Manifest == nil || rep.Manifest.Engine != "sim" {
		t.Fatalf("manifest not captured: %+v", rep.Manifest)
	}
	if rep.TotalTrained != 7 {
		t.Fatalf("TotalTrained = %d", rep.TotalTrained)
	}
	if rep.WallNs != 2000 || rep.RoundsPerSec <= 0 {
		t.Fatalf("throughput: wall %d ns, %v rounds/s", rep.WallNs, rep.RoundsPerSec)
	}
	if !rep.HasEnergy {
		t.Fatal("energy ledger not detected")
	}
	if rep.HarvestWh != 0.75 || rep.ConsumedWh != 0.75 || rep.WastedWh != 0.125 {
		t.Fatalf("energy totals: %g %g %g", rep.HarvestWh, rep.ConsumedWh, rep.WastedWh)
	}
	if rep.FinalChargeWh != 1.875 {
		t.Fatalf("final charge: %g", rep.FinalChargeWh)
	}
	if rep.DroppedSends != 4 {
		t.Fatalf("dropped sends: %d", rep.DroppedSends)
	}
	if len(rep.Outages) != 1 || rep.OpenOutages != 0 {
		t.Fatalf("outages: %+v", rep.Outages)
	}
	ep := rep.Outages[0]
	if ep.Node != 2 || ep.Start != 0 || ep.End != 1 || ep.Rounds != 1 {
		t.Fatalf("episode: %+v", ep)
	}
	if hist := rep.OutageHistogram(); len(hist) != 1 || hist[0] != 1 {
		t.Fatalf("histogram: %v", hist)
	}
	if got := rep.PhaseNs["train"]; got != 400 {
		t.Fatalf("train phase ns: %d", got)
	}
	if len(rep.Evals) != 1 || rep.FinalAcc() != 0.5 {
		t.Fatalf("evals: %+v", rep.Evals)
	}
	if len(rep.Trained) != 2 || rep.Trained[0] != 3 || rep.Trained[1] != 4 {
		t.Fatalf("trained series: %v", rep.Trained)
	}
}

func TestReportOpenOutage(t *testing.T) {
	var evs []obs.Event
	for _, ev := range cleanStream() {
		if ev.Kind == obs.KindRevival {
			continue // node 2 never comes back
		}
		evs = append(evs, ev)
	}
	rep := FromEvents(evs)
	if rep.OpenOutages != 1 || len(rep.Outages) != 1 {
		t.Fatalf("open outage not recorded: %+v", rep.Outages)
	}
	if ep := rep.Outages[0]; ep.End != -1 || ep.Rounds != 2 {
		t.Fatalf("open episode: %+v", ep)
	}
}

func TestReportRendersTextAndMarkdown(t *testing.T) {
	rep := FromEvents(cleanStream())
	var txt, md bytes.Buffer
	rep.WriteText(&txt)
	rep.WriteMarkdown(&md)
	for _, want := range []string{"run report", "Energy", "harvested", "Outages", "Evaluations"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, txt.String())
		}
	}
	if !strings.Contains(md.String(), "## Energy") || !strings.Contains(md.String(), "# Run report") {
		t.Fatalf("markdown structure missing:\n%s", md.String())
	}
}

// The event engine's stream reports its size in event-loop steps and
// virtual time: its round_end events are ledger ticks, which a report once
// printed as "rounds 2" and "rounds/s", with a node throughput of 0.00M.
func TestReportAsyncCountsSteps(t *testing.T) {
	evs := asyncStream()
	evs[len(evs)-1].WallNs = 2e6
	rep := FromEvents(evs)
	if rep.Rounds != 0 || rep.RoundsPerSec != 0 || rep.Steps != 37 || rep.VTime != 100 || rep.StepsPerSec != 18500 {
		t.Fatalf("rounds %d (%v/s), steps %d (%v/s), vtime %v; want 0 rounds, 37 steps at 18500/s, vtime 100",
			rep.Rounds, rep.RoundsPerSec, rep.Steps, rep.StepsPerSec, rep.VTime)
	}
	var txt bytes.Buffer
	rep.WriteText(&txt)
	for _, want := range []string{"steps              37\n", "virtual time       100.00s\n", "18500.0 steps/s\n", "trained/tick", "t=100.00s"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("async report missing %q:\n%s", want, txt.String())
		}
	}
	for _, bad := range []string{"rounds ", "rounds/s", "node-rounds", "/round"} {
		if strings.Contains(txt.String(), bad) {
			t.Errorf("async report prints %q:\n%s", bad, txt.String())
		}
	}
	if d := DiffReports(rep, rep); !slices.ContainsFunc(d.Metrics, func(m MetricDelta) bool { return m.Name == "steps_per_sec" }) ||
		slices.ContainsFunc(d.Metrics, func(m MetricDelta) bool { return strings.HasPrefix(m.Name, "rounds") }) {
		t.Errorf("async diff metrics: %+v", d.Metrics)
	}
}

func TestReadReportRoundtripsJSONL(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONL(&nopCloser{&buf})
	for _, ev := range cleanStream() {
		sink.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 2 || rep.FinalChargeWh != 1.875 || len(rep.Outages) != 1 {
		t.Fatalf("roundtripped report: %+v", rep)
	}
}

type nopCloser struct{ *bytes.Buffer }

func (n *nopCloser) Close() error { return nil }

// DiffReports flags identity drift only when both streams carry a
// manifest; without one the runs' identity is unknown, not drifted.
func TestDiffReportsFlagsDrift(t *testing.T) {
	mkReport := func(seed uint64, extra string) *Report {
		b := obs.NewManifest("sim", "x", seed).Scale(8, 4).Set("lr", "0.05")
		if extra != "" {
			b.Set("cutoff", extra)
		}
		m := b.Build()
		evs := []obs.Event{
			{Kind: obs.KindRunStart, Round: -1, Node: -1, Manifest: &m},
			{Kind: obs.KindRunEnd, Round: -1, Node: -1, WallNs: 1000, Steps: 4, Trained: 10},
		}
		return FromEvents(evs)
	}
	bare := func() *Report {
		return FromEvents([]obs.Event{{Kind: obs.KindRunEnd, Round: -1, Node: -1, WallNs: 1000, Steps: 4, Trained: 10}})
	}
	for _, tc := range []struct {
		name      string
		a, b      *Report
		same      string // "true", "false" or "unknown"
		seedDrift bool
		drift     string // a config line present in b only, or "" for none
		text      string
	}{
		{"identical", mkReport(1, ""), mkReport(1, ""), "true", false, "", "identical hash"},
		{"drift", mkReport(1, ""), mkReport(2, "0.3"), "false", true, "+cutoff=0.3", "HASH DRIFT"},
		{"no manifest in a", bare(), mkReport(1, ""), "unknown", false, "", "config: unknown"},
		{"no manifest in b", mkReport(1, ""), bare(), "unknown", false, "", "config: unknown"},
	} {
		d := DiffReports(tc.a, tc.b)
		same := "unknown"
		if d.SameConfig != nil {
			same = fmt.Sprint(*d.SameConfig)
		}
		if same != tc.same || d.SeedDrift != tc.seedDrift || (tc.drift == "") != (len(d.ConfigDrift) == 0) ||
			(tc.drift != "" && !slices.Contains(d.ConfigDrift, tc.drift)) {
			t.Errorf("%s: same config %s, seed drift %v, config drift %v; want %s, %v, %v",
				tc.name, same, d.SeedDrift, d.ConfigDrift, tc.same, tc.seedDrift, tc.drift)
		}
		var buf bytes.Buffer
		d.WriteText(&buf, "a", "b")
		if !strings.Contains(buf.String(), tc.text) || (tc.same == "unknown" && strings.Contains(buf.String(), "HASH DRIFT")) {
			t.Errorf("%s: diff text lacks %q:\n%s", tc.name, tc.text, buf.String())
		}
	}
}
