package analyze

import (
	"fmt"
	"io"
	"math"
)

// MetricDelta is one scalar compared across two runs.
type MetricDelta struct {
	Name string  `json:"name"`
	A    float64 `json:"a"`
	B    float64 `json:"b"`
}

// RelDelta returns (B − A)/|A|, or 0 when A is 0.
func (d MetricDelta) RelDelta() float64 {
	if d.A == 0 {
		return 0
	}
	return (d.B - d.A) / math.Abs(d.A)
}

// Diff compares two runs by their reports: identity drift first (config
// hash, seed, code revision — the manifest fields that decide whether
// the runs are even comparable), then headline metric deltas.
type Diff struct {
	// SameConfig reports whether both manifests carry the same config hash
	// — the runs computed the same experiment. It is nil when either stream
	// has no manifest: then the runs' identity is unknown.
	SameConfig *bool `json:"same_config"`
	// ConfigDrift lists "key=value" config lines present in exactly one
	// run (prefixed "-" for A-only, "+" for B-only).
	ConfigDrift []string `json:"config_drift,omitempty"`
	// SeedDrift and RevisionDrift flag the other identity components.
	SeedDrift     bool `json:"seed_drift"`
	RevisionDrift bool `json:"revision_drift"`

	Metrics []MetricDelta `json:"metrics"`
}

// DiffReports compares run A against run B.
func DiffReports(a, b *Report) *Diff {
	d := &Diff{}
	am, bm := a.Manifest, b.Manifest
	if am != nil && bm != nil {
		same := am.ConfigHash == bm.ConfigHash
		d.SameConfig = &same
		d.SeedDrift = am.Seed != bm.Seed
		d.RevisionDrift = am.GitRevision != bm.GitRevision
		if !same {
			inA := map[string]bool{}
			for _, kv := range am.Config {
				inA[kv] = true
			}
			inB := map[string]bool{}
			for _, kv := range bm.Config {
				inB[kv] = true
				if !inA[kv] {
					d.ConfigDrift = append(d.ConfigDrift, "+"+kv)
				}
			}
			for _, kv := range am.Config {
				if !inB[kv] {
					d.ConfigDrift = append(d.ConfigDrift, "-"+kv)
				}
			}
		}
	}
	add := func(name string, av, bv float64) {
		if av == 0 && bv == 0 {
			return
		}
		d.Metrics = append(d.Metrics, MetricDelta{Name: name, A: av, B: bv})
	}
	add("rounds", float64(a.Rounds), float64(b.Rounds))
	add("steps", float64(a.Steps), float64(b.Steps))
	add("wall_s", float64(a.WallNs)/1e9, float64(b.WallNs)/1e9)
	add("rounds_per_sec", a.RoundsPerSec, b.RoundsPerSec)
	add("steps_per_sec", a.StepsPerSec, b.StepsPerSec)
	add("trainings", float64(a.TotalTrained), float64(b.TotalTrained))
	add("final_acc", a.FinalAcc(), b.FinalAcc())
	add("harvest_wh", a.HarvestWh, b.HarvestWh)
	add("consumed_wh", a.ConsumedWh, b.ConsumedWh)
	add("wasted_wh", a.WastedWh, b.WastedWh)
	add("final_charge_wh", a.FinalChargeWh, b.FinalChargeWh)
	add("outage_episodes", float64(len(a.Outages)), float64(len(b.Outages)))
	add("dropped_sends", float64(a.DroppedSends), float64(b.DroppedSends))
	return d
}

// WriteText renders the diff for `obstool diff`.
func (d *Diff) WriteText(w io.Writer, labelA, labelB string) {
	fmt.Fprintf(w, "run diff: %s vs %s\n", labelA, labelB)
	switch {
	case d.SameConfig == nil:
		fmt.Fprintf(w, "  config: unknown (a stream carries no manifest)\n")
	case *d.SameConfig:
		fmt.Fprintf(w, "  config: identical hash (same experiment)\n")
	default:
		fmt.Fprintf(w, "  config: HASH DRIFT — runs are different experiments\n")
		for _, line := range d.ConfigDrift {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
	if d.SeedDrift {
		fmt.Fprintf(w, "  seed: differs\n")
	}
	if d.RevisionDrift {
		fmt.Fprintf(w, "  revision: differs\n")
	}
	fmt.Fprintf(w, "  %-18s %14s %14s %12s\n", "metric", labelA, labelB, "delta")
	for _, m := range d.Metrics {
		fmt.Fprintf(w, "  %-18s %14.4g %14.4g %+11.2f%%\n", m.Name, m.A, m.B, 100*m.RelDelta())
	}
}
