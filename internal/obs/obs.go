// Package obs is the streaming observability layer of the simulator: a
// zero-overhead-when-disabled probe that the engines (internal/sim,
// internal/async, the experiments grid runner) thread through their hot
// paths, emitting structured events — round boundaries, per-phase wall
// clocks, brown-outs, revivals, dropped sends, evaluations — into pluggable
// sinks (JSONL files, a live progress line, an in-memory buffer), or, with
// a nil probe, nowhere.
//
// Three invariants shape the design:
//
//   - Disabled means free. A nil *Probe is the off state; every method is
//     safe and a no-op on a nil receiver, so instrumented code pays one
//     nil check per emission and allocates nothing.
//   - Telemetry is read-only. Probes observe engine state, never mutate
//     it, and never touch an RNG stream: a telemetry-on run is
//     bit-identical in model state to the same run with telemetry off
//     (pinned by tests in internal/sim).
//   - Events are flat. One Event struct covers every kind, JSON-encodes to
//     a single line, and carries no nested maps, so a JSONL stream is
//     greppable and trivially parseable by downstream tooling.
//
// The package also provides the streaming quantile Sketch (SoC percentiles
// without materializing per-node slices) and the RunManifest (a
// content-addressable run identity: config hash, seed, Go version, git
// revision — the cache key of the memoized sweep service). Streams are
// checked by obs/analyze's Auditor, live or offline (`obstool report`).
package obs

import "time"

// Phase identifies one barriered section of a sim engine round.
type Phase uint8

const (
	// PhaseLiveSet is the start-of-round liveness snapshot and mixing
	// re-normalization.
	PhaseLiveSet Phase = iota
	// PhaseRejoin is the pass over live-set transitions that applies a
	// rejoin rule to reviving nodes.
	PhaseRejoin
	// PhaseTrain is the local-training fan-out.
	PhaseTrain
	// PhaseAggregate is the fan-out that lists each node's W-row operands
	// and averages them.
	PhaseAggregate
	// PhaseBattery is the fleet battery close-out (drain + harvest).
	PhaseBattery
	// PhaseEval is the evaluation pass.
	PhaseEval

	numPhases
)

var phaseNames = [numPhases]string{
	"liveset", "rejoin", "train", "aggregate", "battery", "eval",
}

// String returns the phase's event label.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Event kinds. Every event in a stream carries exactly one of these.
const (
	// KindRunStart opens a run; it carries the RunManifest.
	KindRunStart = "run_start"
	// KindRunEnd closes a run with total wall time and counters.
	KindRunEnd = "run_end"
	// KindRoundStart marks the beginning of round Round (Label = round kind).
	KindRoundStart = "round_start"
	// KindRoundEnd summarizes round Round: wall time, participation,
	// liveness, streamed SoC percentiles and the fleet's energy ledger.
	KindRoundEnd = "round_end"
	// KindPhase reports one phase's wall clock within round Round.
	KindPhase = "phase"
	// KindBrownout marks node Node dropping below its cutoff at round Round.
	KindBrownout = "brownout"
	// KindRevival marks node Node recharging past its cutoff at round
	// Round, with the rounds it missed in Staleness when known.
	KindRevival = "revival"
	// KindDropped reports messages lost on dead edges this round.
	KindDropped = "dropped_sends"
	// KindEval reports an evaluation's mean/std accuracy.
	KindEval = "eval"
	// KindCell reports one completed grid-search cell (Label identifies
	// it, Value is its headline metric, WallNs its wall clock).
	KindCell = "cell"
)

// Event is one structured telemetry record. The struct is deliberately
// flat — every kind uses a subset of the fields and leaves the rest at
// their zero values, so a JSONL stream stays one self-describing object
// per line. Round is -1 on events outside any round, Node is -1 on events
// not tied to a node.
type Event struct {
	Kind  string `json:"kind"`
	Round int    `json:"round"`
	Node  int    `json:"node"`

	// Phase label (phase events) and free-form label (round kind on
	// round_start, cell identity on cell events).
	Phase string `json:"phase,omitempty"`
	Label string `json:"label,omitempty"`

	// Wall clock.
	WallNs int64 `json:"wall_ns,omitempty"`

	// Round and run counters.
	Trained   int `json:"trained,omitempty"`
	Live      int `json:"live,omitempty"`
	Depleted  int `json:"depleted,omitempty"`
	Dropped   int `json:"dropped,omitempty"`
	Staleness int `json:"staleness,omitempty"`
	Steps     int `json:"steps,omitempty"`
	Gossips   int `json:"gossips,omitempty"`

	// Streamed fleet state of charge (round_end of harvest-coupled runs).
	MeanSoC float64 `json:"mean_soc,omitempty"`
	SoCP50  float64 `json:"soc_p50,omitempty"`
	SoCP90  float64 `json:"soc_p90,omitempty"`
	SoCP99  float64 `json:"soc_p99,omitempty"`

	// Per-round fleet energy totals in watt-hours (round_end of
	// harvest-coupled runs; charge also rides on run_start as the audit
	// baseline). HarvestWh is the energy that arrived this round — the sum
	// of what was stored and what overflowed full batteries (WastedWh), so
	// HarvestWh − ConsumedWh − WastedWh = ΔChargeWh, the conservation
	// identity the analyze.Auditor checks.
	HarvestWh  float64 `json:"harvest_wh,omitempty"`
	ConsumedWh float64 `json:"consumed_wh,omitempty"`
	WastedWh   float64 `json:"wasted_wh,omitempty"`
	ChargeWh   float64 `json:"charge_wh,omitempty"`

	// Evaluation results (eval events).
	MeanAcc float64 `json:"mean_acc,omitempty"`
	StdAcc  float64 `json:"std_acc,omitempty"`

	// VTime is the async engine's virtual time in seconds.
	VTime float64 `json:"vtime,omitempty"`
	// Value is a kind-specific headline metric (cell accuracy, ...).
	Value float64 `json:"value,omitempty"`

	// Manifest rides on run_start only.
	Manifest *RunManifest `json:"manifest,omitempty"`
}

// Probe is the handle engines emit telemetry through. A nil *Probe is the
// disabled state: every method no-ops, so hot paths carry instrumentation
// unconditionally and pay only a nil check when telemetry is off.
//
// Emit (and the event helpers built on it) is safe for concurrent use
// whenever the sink is — the provided sinks all are. The phase and round
// timers (RoundStart/RoundEnd, PhaseStart/PhaseEnd) keep per-probe state
// and must be driven by one goroutine, the engine's coordinator; the
// engines' worker fan-outs never touch them.
type Probe struct {
	sink Sink

	runStart   time.Time
	roundStart time.Time
	phaseStart [numPhases]time.Time
}

// NewProbe returns a probe emitting into sink. A nil sink yields a
// disabled (nil) probe, so callers can thread the result unconditionally.
func NewProbe(sink Sink) *Probe {
	if sink == nil {
		return nil
	}
	return &Probe{sink: sink}
}

// Enabled reports whether the probe is live. Callers use it to skip work
// whose only product is telemetry, such as building the grid runner's
// per-regime manifest.
func (p *Probe) Enabled() bool { return p != nil }

// Emit sends one event to the sink. Safe on a nil probe.
func (p *Probe) Emit(ev Event) {
	if p == nil {
		return
	}
	p.sink.Emit(ev)
}

// RunStart opens the run: stamps the wall clock and emits run_start
// carrying the manifest and, for harvest-coupled runs, the fleet's initial
// total charge (Wh) — the baseline the energy-conservation audit integrates
// from. Zero Wh drops out of the JSON (omitempty), and the auditor then
// baselines at the first round_end instead.
func (p *Probe) RunStart(m *RunManifest, chargeWh float64) {
	if p == nil {
		return
	}
	p.runStart = time.Now()
	p.sink.Emit(Event{Kind: KindRunStart, Round: -1, Node: -1, Manifest: m, ChargeWh: chargeWh})
}

// RunEnd emits ev, the run's counters (Steps: its rounds, or the async
// engine's steps), as a run_end event: it stamps the kind, the round and
// node (-1) and the run's wall clock.
func (p *Probe) RunEnd(ev Event) {
	if p == nil {
		return
	}
	ev.Kind, ev.Round, ev.Node, ev.WallNs = KindRunEnd, -1, -1, time.Since(p.runStart).Nanoseconds()
	p.sink.Emit(ev)
}

// RoundStart marks the beginning of round t (kind is the coordinated
// round kind's label).
func (p *Probe) RoundStart(t int, kind string) {
	if p == nil {
		return
	}
	p.roundStart = time.Now()
	p.sink.Emit(Event{Kind: KindRoundStart, Round: t, Node: -1, Label: kind})
}

// RoundEnd emits ev, the summary of round ev.Round, as a round_end event:
// it stamps the kind, the node (-1) and the round's wall clock.
func (p *Probe) RoundEnd(ev Event) {
	if p == nil {
		return
	}
	ev.Kind, ev.Node, ev.WallNs = KindRoundEnd, -1, time.Since(p.roundStart).Nanoseconds()
	p.sink.Emit(ev)
}

// PhaseStart opens phase ph's timer.
func (p *Probe) PhaseStart(ph Phase) {
	if p == nil {
		return
	}
	p.phaseStart[ph] = time.Now()
}

// PhaseEnd closes phase ph within round t and emits its phase event.
func (p *Probe) PhaseEnd(t int, ph Phase) {
	if p == nil {
		return
	}
	p.sink.Emit(Event{
		Kind: KindPhase, Round: t, Node: -1, Phase: ph.String(),
		WallNs: time.Since(p.phaseStart[ph]).Nanoseconds(),
	})
}

// Brownout marks node dropping below its cutoff at round t.
func (p *Probe) Brownout(t, node int) {
	if p == nil {
		return
	}
	p.sink.Emit(Event{Kind: KindBrownout, Round: t, Node: node})
}

// Revival marks node recharging past its cutoff at round t; staleness is
// the rounds it missed (0 when unknown).
func (p *Probe) Revival(t, node, staleness int) {
	if p == nil {
		return
	}
	p.sink.Emit(Event{Kind: KindRevival, Round: t, Node: node, Staleness: staleness})
}

// DroppedSends reports n messages lost on dead edges in round t; a zero
// count emits nothing.
func (p *Probe) DroppedSends(t, n int) {
	if p == nil || n == 0 {
		return
	}
	p.sink.Emit(Event{Kind: KindDropped, Round: t, Node: -1, Dropped: n})
}

// Eval reports an evaluation at round t.
func (p *Probe) Eval(t int, meanAcc, stdAcc float64) {
	if p == nil {
		return
	}
	p.sink.Emit(Event{Kind: KindEval, Round: t, Node: -1, MeanAcc: meanAcc, StdAcc: stdAcc})
}
