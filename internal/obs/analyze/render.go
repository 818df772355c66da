package analyze

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/report"
)

// WriteText renders the report as plain text with sparkline timelines —
// the default `obstool report` output.
func (r *Report) WriteText(w io.Writer) {
	r.write(w, false)
}

// WriteMarkdown renders the report as a markdown document
// (`obstool report -md`).
func (r *Report) WriteMarkdown(w io.Writer) {
	r.write(w, true)
}

func (r *Report) write(w io.Writer, md bool) {
	h := func(title string) {
		if md {
			fmt.Fprintf(w, "\n## %s\n\n", title)
		} else {
			fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
		}
	}
	kv := func(key, format string, args ...any) {
		val := fmt.Sprintf(format, args...)
		if md {
			fmt.Fprintf(w, "- **%s**: %s\n", key, val)
		} else {
			fmt.Fprintf(w, "  %-18s %s\n", key, val)
		}
	}

	if md {
		fmt.Fprintf(w, "# Run report\n")
	} else {
		fmt.Fprintf(w, "run report\n==========\n")
	}
	if m := r.Manifest; m != nil {
		kv("engine", "%s", m.Engine)
		if m.Label != "" {
			kv("label", "%s", m.Label)
		}
		kv("seed", "%d", m.Seed)
		kv("config", "%s", m.ConfigHash)
		if m.Nodes > 0 {
			kv("nodes", "%d", m.Nodes)
		}
		if m.GitRevision != "" {
			kv("revision", "%s", m.GitRevision)
		}
	}
	kv("events", "%d", r.Events)
	per := "round"
	if r.VTime > 0 {
		per = "tick"
		kv("steps", "%d", r.Steps)
		kv("virtual time", "%.2fs", r.VTime)
	} else {
		kv("rounds", "%d", r.Rounds)
	}
	if r.WallNs > 0 {
		kv("wall time", "%.3fs", float64(r.WallNs)/1e9)
	}
	if r.StepsPerSec > 0 {
		kv("throughput", "%.1f steps/s", r.StepsPerSec)
	}
	if r.RoundsPerSec > 0 {
		kv("throughput", "%.1f rounds/s", r.RoundsPerSec)
		if r.Manifest != nil && r.Manifest.Nodes > 0 {
			kv("node throughput", "%.2fM node-rounds/s", r.RoundsPerSec*float64(r.Manifest.Nodes)/1e6)
		}
	}
	if r.TotalTrained > 0 {
		kv("trainings", "%d", r.TotalTrained)
	}
	if r.DroppedSends > 0 {
		kv("dropped sends", "%d", r.DroppedSends)
	}

	if len(r.Trained) > 1 {
		h("Participation")
		kv("trained/"+per, "%s", report.Sparkline(r.Trained))
		kv("live/"+per, "%s", report.Sparkline(r.Live))
	}

	if len(r.SoCRounds) > 1 {
		h("State of charge")
		kv("mean", "%s  (final %.3f)", report.Sparkline(r.MeanSoC), last(r.MeanSoC))
		kv("p50", "%s  (final %.3f)", report.Sparkline(r.SoCP50), last(r.SoCP50))
		kv("p90", "%s  (final %.3f)", report.Sparkline(r.SoCP90), last(r.SoCP90))
		kv("p99", "%s  (final %.3f)", report.Sparkline(r.SoCP99), last(r.SoCP99))
	}

	if r.HasEnergy {
		h("Energy")
		kv("harvested", "%.2f Wh", r.HarvestWh)
		kv("consumed", "%.2f Wh", r.ConsumedWh)
		kv("wasted", "%.2f Wh", r.WastedWh)
		kv("final charge", "%.2f Wh", r.FinalChargeWh)
	}

	if len(r.PhaseNs) > 0 {
		h("Phase breakdown")
		type pt struct {
			name string
			ns   int64
		}
		var phases []pt
		var total int64
		for name, ns := range r.PhaseNs {
			phases = append(phases, pt{name, ns})
			total += ns
		}
		sort.Slice(phases, func(i, j int) bool { return phases[i].ns > phases[j].ns })
		for _, p := range phases {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(p.ns) / float64(total)
			}
			kv(p.name, "%8.3f ms  %5.1f%%", float64(p.ns)/1e6, pct)
		}
	}

	if len(r.Outages) > 0 {
		h("Outages")
		kv("episodes", "%d (%d still dark at end)", len(r.Outages), r.OpenOutages)
		hist := r.OutageHistogram()
		for b, n := range hist {
			if n == 0 {
				continue
			}
			lo := 1 << b
			hi := 1<<(b+1) - 1
			label := fmt.Sprintf("%d-%d rounds", lo, hi)
			if lo == hi {
				label = fmt.Sprintf("%d round", lo)
			}
			kv(label, "%d", n)
		}
	}

	if len(r.Evals) > 0 {
		h("Evaluations")
		for _, e := range r.Evals {
			at := fmt.Sprintf("round %d", e.Round+1)
			if e.VTime > 0 {
				at = fmt.Sprintf("t=%.2fs", e.VTime)
			}
			kv(at, "%.2f%% ± %.2f", 100*e.MeanAcc, 100*e.StdAcc)
		}
	}
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}
