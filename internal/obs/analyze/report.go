package analyze

import (
	"io"
	"math/bits"
	"sort"

	"repro/internal/obs"
)

// EvalPoint is one evaluation from the stream. The event engine's carries
// its virtual time, and its Round counts evaluations, not rounds.
type EvalPoint struct {
	Round   int     `json:"round"`
	VTime   float64 `json:"vtime,omitempty"`
	MeanAcc float64 `json:"mean_acc"`
	StdAcc  float64 `json:"std_acc"`
}

// OutageEpisode is one contiguous dark span of a node: from the round it
// browned out through the round it revived. End is −1 (and Rounds counts
// through the last seen round) when the node never came back.
type OutageEpisode struct {
	Node   int `json:"node"`
	Start  int `json:"start"`
	End    int `json:"end"`
	Rounds int `json:"rounds"`
}

// Report is a run reconstructed from its event stream: throughput, phase
// breakdown, outage episodes, SoC percentile timelines, energy totals.
// Build one from buffered events via FromEvents or offline from JSONL via
// ReadReport.
//
// Rounds counts the round engine's round_end events. The event engine's
// events carry a virtual time and its stream has no rounds: its round_end
// events are ledger ticks, and its size is Steps, the event-loop steps its
// run_end counts, with StepsPerSec for throughput. Each engine leaves the
// other's fields 0.
type Report struct {
	Manifest *obs.RunManifest `json:"manifest,omitempty"`
	Runs     int              `json:"runs"`
	Events   int              `json:"events"`
	Rounds   int              `json:"rounds"`
	Steps    int              `json:"steps,omitempty"`
	VTime    float64          `json:"vtime,omitempty"` // the last virtual time, in seconds

	WallNs       int64   `json:"wall_ns"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	StepsPerSec  float64 `json:"steps_per_sec,omitempty"`
	TotalTrained int     `json:"total_trained"`
	DroppedSends int     `json:"dropped_sends"`

	Evals   []EvalPoint      `json:"evals,omitempty"`
	PhaseNs map[string]int64 `json:"phase_ns,omitempty"`

	Outages     []OutageEpisode `json:"outages,omitempty"`
	OpenOutages int             `json:"open_outages"`

	// Per-round series, in stream order (rounds with the field absent are
	// skipped; SoCRounds records which rounds the SoC samples cover).
	Trained   []float64 `json:"-"`
	Live      []float64 `json:"-"`
	SoCRounds []int     `json:"-"`
	MeanSoC   []float64 `json:"-"`
	SoCP50    []float64 `json:"-"`
	SoCP90    []float64 `json:"-"`
	SoCP99    []float64 `json:"-"`

	// Energy totals summed over the stream's round_end ledgers.
	HarvestWh     float64 `json:"harvest_wh"`
	ConsumedWh    float64 `json:"consumed_wh"`
	WastedWh      float64 `json:"wasted_wh"`
	FinalChargeWh float64 `json:"final_charge_wh"`
	HasEnergy     bool    `json:"has_energy"`
}

// FinalAcc returns the last evaluation's mean accuracy (0 when the run
// never evaluated).
func (r *Report) FinalAcc() float64 {
	if len(r.Evals) == 0 {
		return 0
	}
	return r.Evals[len(r.Evals)-1].MeanAcc
}

// OutageHistogram buckets episode durations by powers of two: bucket i
// counts episodes lasting [2^i, 2^(i+1)) rounds.
func (r *Report) OutageHistogram() []int {
	var hist []int
	for _, ep := range r.Outages {
		if ep.Rounds < 1 {
			continue
		}
		b := bits.Len(uint(ep.Rounds)) - 1
		for len(hist) <= b {
			hist = append(hist, 0)
		}
		hist[b]++
	}
	return hist
}

// FromEvents reconstructs a run from an in-order event slice.
func FromEvents(events []obs.Event) *Report {
	b := newReportBuilder()
	for _, ev := range events {
		b.add(ev)
	}
	return b.finish()
}

// ReadReport reconstructs a run from a JSONL stream.
func ReadReport(r io.Reader) (*Report, error) {
	b := newReportBuilder()
	if err := feedEvents(r, b.add); err != nil {
		return nil, err
	}
	return b.finish(), nil
}

type reportBuilder struct {
	rep       Report
	downSince map[int]int // node -> round it browned out
	lastRound int
}

func newReportBuilder() *reportBuilder {
	return &reportBuilder{rep: Report{PhaseNs: map[string]int64{}}, downSince: map[int]int{}, lastRound: -1}
}

func (b *reportBuilder) add(ev obs.Event) {
	b.rep.Events++
	switch ev.Kind {
	case obs.KindRunStart:
		b.rep.Runs++
		if b.rep.Manifest == nil && ev.Manifest != nil {
			b.rep.Manifest = ev.Manifest
		}
		b.downSince = map[int]int{}
	case obs.KindRunEnd:
		b.rep.WallNs += ev.WallNs
		if ev.VTime > 0 {
			b.rep.Steps += ev.Steps
			b.rep.VTime = max(b.rep.VTime, ev.VTime)
		}
		if ev.Trained > b.rep.TotalTrained {
			b.rep.TotalTrained = ev.Trained
		}
	case obs.KindRoundEnd:
		if ev.VTime == 0 {
			b.rep.Rounds++
		}
		b.lastRound = ev.Round
		b.rep.Trained = append(b.rep.Trained, float64(ev.Trained))
		b.rep.Live = append(b.rep.Live, float64(ev.Live))
		if ev.MeanSoC != 0 || ev.SoCP50 != 0 || ev.SoCP99 != 0 {
			b.rep.SoCRounds = append(b.rep.SoCRounds, ev.Round)
			b.rep.MeanSoC = append(b.rep.MeanSoC, ev.MeanSoC)
			b.rep.SoCP50 = append(b.rep.SoCP50, ev.SoCP50)
			b.rep.SoCP90 = append(b.rep.SoCP90, ev.SoCP90)
			b.rep.SoCP99 = append(b.rep.SoCP99, ev.SoCP99)
		}
		if hasEnergy(ev) {
			b.rep.HasEnergy = true
			b.rep.HarvestWh += ev.HarvestWh
			b.rep.ConsumedWh += ev.ConsumedWh
			b.rep.WastedWh += ev.WastedWh
			b.rep.FinalChargeWh = ev.ChargeWh
		}
	case obs.KindPhase:
		b.rep.PhaseNs[ev.Phase] += ev.WallNs
	case obs.KindBrownout:
		if _, dark := b.downSince[ev.Node]; !dark {
			b.downSince[ev.Node] = ev.Round
		}
	case obs.KindRevival:
		if start, dark := b.downSince[ev.Node]; dark {
			b.rep.Outages = append(b.rep.Outages, OutageEpisode{
				Node: ev.Node, Start: start, End: ev.Round, Rounds: ev.Round - start,
			})
			delete(b.downSince, ev.Node)
		}
	case obs.KindDropped:
		b.rep.DroppedSends += ev.Dropped
	case obs.KindEval:
		b.rep.Evals = append(b.rep.Evals, EvalPoint{Round: ev.Round, VTime: ev.VTime, MeanAcc: ev.MeanAcc, StdAcc: ev.StdAcc})
	}
}

func (b *reportBuilder) finish() *Report {
	// Nodes still dark at end of stream become open episodes, counted
	// through the last seen round.
	for node, start := range b.downSince {
		rounds := b.lastRound - start + 1
		if rounds < 1 {
			rounds = 1
		}
		b.rep.Outages = append(b.rep.Outages, OutageEpisode{Node: node, Start: start, End: -1, Rounds: rounds})
		b.rep.OpenOutages++
	}
	sort.Slice(b.rep.Outages, func(i, j int) bool {
		a, c := b.rep.Outages[i], b.rep.Outages[j]
		if a.Start != c.Start {
			return a.Start < c.Start
		}
		return a.Node < c.Node
	})
	if wall := float64(b.rep.WallNs) / 1e9; wall > 0 {
		b.rep.RoundsPerSec = float64(b.rep.Rounds) / wall
		b.rep.StepsPerSec = float64(b.rep.Steps) / wall
	}
	if len(b.rep.PhaseNs) == 0 {
		b.rep.PhaseNs = nil
	}
	return &b.rep
}
