// Package analyze is the consuming half of the observability layer: where
// internal/obs emits telemetry streams, this package certifies and
// summarizes them. It provides the streaming Auditor (an obs.Sink that
// checks a run's internal consistency — energy conservation, brownout
// alternation, counter monotonicity, phase-time accounting — live during
// a run or offline over a JSONL file), the Report builder (reconstructing
// outage episodes, SoC timelines, and phase breakdowns from an event
// stream), and cross-run diffing by manifest.
//
// The auditor is what lets a manifest-keyed run be trusted as a cache
// entry (the ROADMAP's memoized-sweep service): a stream that passes is
// internally consistent with the physics the engines claim to implement.
package analyze

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Violation classes, one per invariant family the Auditor checks.
const (
	// ClassStructure: stream shape — events of an unknown kind or before
	// run_start, a run_start without a manifest config hash, missing
	// run_end, run_start with a round still open.
	ClassStructure = "structure"
	// ClassRound: round bracketing and monotonicity — unpaired
	// round_start/round_end, non-increasing round numbers.
	ClassRound = "round"
	// ClassEnergy: per-round energy conservation — harvested − consumed −
	// wasted must equal the fleet's change in charge, within EnergyTol.
	ClassEnergy = "energy"
	// ClassAlternation: per-node brownout/revival alternation — a node
	// must brown out before it can revive, and cannot brown out twice.
	ClassAlternation = "alternation"
	// ClassCounter: counter sanity — negative or fleet-exceeding
	// participation counts, run_end totals disagreeing with the rounds.
	ClassCounter = "counter"
	// ClassPhaseTime: phase-time accounting — the sum of a round's phase
	// wall clocks cannot exceed the round's wall clock.
	ClassPhaseTime = "phase-time"
	// ClassVTime: virtual-time monotonicity — VTime-stamped events of one
	// run segment (the event-driven engine's streams) must not go
	// backwards.
	ClassVTime = "vtime"
)

// EnergyRelTol is the documented relative float tolerance of the energy
// conservation check. The per-round identity
//
//	harvested − consumed − wasted = ΔCharge
//
// is exact in the physics, but the stream carries consumed/wasted as
// deltas of cumulative ledgers and charge as a fresh sum over nodes, so
// the comparison accumulates cancellation error that scales with the
// cumulative magnitudes, not the per-round ones. The check therefore
// allows |residual| ≤ EnergyRelTol × (1 + ΣharvestWh + ΣconsumedWh +
// ΣwastedWh + |chargeWh|), with the sums running over the audited stream.
const EnergyRelTol = 1e-9

// EnergyTol returns the absolute tolerance for one round's conservation
// residual given the stream's running cumulative energy magnitudes.
func EnergyTol(cumHarvest, cumConsumed, cumWasted, chargeWh float64) float64 {
	return EnergyRelTol * (1 + cumHarvest + cumConsumed + cumWasted + math.Abs(chargeWh))
}

// Violation is one invariant breach: where in the stream (Seq is the
// 0-based event index), which round and node (−1 when not applicable),
// which invariant class, and a human-readable message.
type Violation struct {
	Seq   int    `json:"seq"`
	Round int    `json:"round"`
	Node  int    `json:"node"`
	Class string `json:"class"`
	Msg   string `json:"msg"`
}

func (v Violation) String() string {
	return fmt.Sprintf("event %d [%s] round %d node %d: %s", v.Seq, v.Class, v.Round, v.Node, v.Msg)
}

// maxViolations caps the retained violation list; a corrupt stream can
// breach an invariant every round and the auditor must stay bounded.
const maxViolations = 64

// Auditor is an obs.Sink that checks streaming invariants as events
// arrive — attach it live (harvestsim -audit) or replay a JSONL file
// through it offline (ReadEvents, `obstool report`). It is tolerant of
// every emitting engine's stream shape: runs without rounds (async, the
// grid runner), multiple run_start/run_end segments in one stream (the
// grid runner emits one per regime), and rounds without energy fields
// (no fleet attached). Violations are collected, not fatal: the stream
// is always consumed to the end so one breach does not mask later ones.
type Auditor struct {
	mu   sync.Mutex
	seq  int // events seen
	runs int // run_start events seen
	ends int // run_end events seen

	openRound   int   // currently open round, -1 when none
	lastRound   int   // last round opened in this run segment
	roundEnds   int   // round_end count in this run segment
	trainedSum  int   // sum of round_end Trained in this run segment
	phaseNs     int64 // phase wall-clock accumulated in the open round
	fleetSize   int   // manifest Nodes, 0 when unknown
	down        map[int]bool
	prevCharge  float64 // fleet charge at the last energy-bearing event
	haveCharge  bool    // prevCharge is a valid baseline
	cumHarvest  float64
	cumConsumed float64
	cumWasted   float64
	vtime       bool    // this segment carries virtual-time stamps
	lastVTime   float64 // highest VTime seen in this segment

	violations []Violation
	overflow   int // violations dropped past maxViolations
}

// NewAuditor returns an empty auditor ready to receive a stream.
func NewAuditor() *Auditor {
	return &Auditor{openRound: -1, lastRound: -1, down: map[int]bool{}}
}

func (a *Auditor) violate(round, node int, class, format string, args ...any) {
	if len(a.violations) >= maxViolations {
		a.overflow++
		return
	}
	a.violations = append(a.violations, Violation{
		Seq: a.seq, Round: round, Node: node, Class: class,
		Msg: fmt.Sprintf(format, args...),
	})
}

// Emit checks one event against the stream state so far. Implements
// obs.Sink; safe for concurrent use.
func (a *Auditor) Emit(ev obs.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.runs == 0 && ev.Kind != obs.KindRunStart {
		a.violate(ev.Round, ev.Node, ClassStructure, "%s before run_start", ev.Kind)
	}
	// Virtual-time monotonicity: the event-driven engine stamps its stream
	// with VTime, which must never regress within a run segment (events
	// without a stamp — zero VTime — are outside the virtual clock).
	if ev.VTime > 0 && ev.Kind != obs.KindRunStart {
		if a.vtime && ev.VTime < a.lastVTime {
			a.violate(ev.Round, ev.Node, ClassVTime, "vtime %g regresses behind %g", ev.VTime, a.lastVTime)
		}
		a.vtime, a.lastVTime = true, math.Max(a.lastVTime, ev.VTime)
	}
	switch ev.Kind {
	case obs.KindRunStart:
		if a.openRound >= 0 {
			a.violate(ev.Round, -1, ClassStructure, "run_start with round %d still open", a.openRound)
		}
		if ev.Manifest == nil || ev.Manifest.ConfigHash == "" {
			a.violate(ev.Round, -1, ClassStructure, "run_start carries no manifest config hash")
		}
		// A new run segment: reset per-run state but keep violations.
		a.runs++
		a.openRound, a.lastRound = -1, -1
		a.roundEnds, a.trainedSum, a.phaseNs = 0, 0, 0
		a.down = map[int]bool{}
		a.cumHarvest, a.cumConsumed, a.cumWasted = 0, 0, 0
		a.vtime, a.lastVTime = false, 0
		a.fleetSize = 0
		if ev.Manifest != nil {
			a.fleetSize = ev.Manifest.Nodes
		}
		// run_start of a harvest-coupled run stamps the initial fleet
		// charge — the conservation baseline. Without it (non-harvest runs,
		// or a fleet starting at exactly zero charge, which omitempty
		// drops) the baseline is taken at the first energy round_end.
		a.prevCharge, a.haveCharge = ev.ChargeWh, ev.ChargeWh != 0
	case obs.KindRunEnd:
		a.ends++
		if a.openRound >= 0 {
			a.violate(ev.Round, -1, ClassRound, "run_end with round %d still open", a.openRound)
			a.openRound = -1
		}
		// Run totals must agree with the rounds that were streamed — but
		// only for engines whose run is made of rounds. Async and the grid
		// runner close runs with engine-specific step counts instead; a
		// VTime-stamped segment's round_ends are eval-tick ledger
		// checkpoints, not steps, so the totals are unrelated by design.
		if a.roundEnds > 0 && !a.vtime {
			if ev.Steps != a.roundEnds {
				a.violate(-1, -1, ClassCounter, "run_end reports %d rounds, stream carried %d round_ends", ev.Steps, a.roundEnds)
			}
			if ev.Trained != a.trainedSum {
				a.violate(-1, -1, ClassCounter, "run_end reports %d trainings, round_ends sum to %d", ev.Trained, a.trainedSum)
			}
		}
	case obs.KindRoundStart:
		if a.openRound >= 0 {
			a.violate(ev.Round, -1, ClassRound, "round_start %d while round %d is open", ev.Round, a.openRound)
		}
		if ev.Round <= a.lastRound {
			a.violate(ev.Round, -1, ClassRound, "round_start %d is not after round %d", ev.Round, a.lastRound)
		}
		a.openRound, a.lastRound = ev.Round, ev.Round
		a.phaseNs = 0
	case obs.KindRoundEnd:
		if a.openRound != ev.Round {
			if a.openRound < 0 {
				a.violate(ev.Round, -1, ClassRound, "round_end %d without round_start", ev.Round)
			} else {
				a.violate(ev.Round, -1, ClassRound, "round_end %d closes open round %d", ev.Round, a.openRound)
			}
		}
		a.openRound = -1
		a.roundEnds++
		a.trainedSum += ev.Trained
		a.checkCounters(ev)
		if a.phaseNs > ev.WallNs {
			a.violate(ev.Round, -1, ClassPhaseTime, "phases sum to %d ns, round wall clock is %d ns", a.phaseNs, ev.WallNs)
		}
		a.phaseNs = 0
		a.checkEnergy(ev)
	case obs.KindPhase:
		if a.openRound < 0 {
			a.violate(ev.Round, -1, ClassRound, "phase %q outside any round", ev.Phase)
		} else if ev.Round == a.openRound {
			a.phaseNs += ev.WallNs
		}
		if ev.WallNs < 0 {
			a.violate(ev.Round, -1, ClassPhaseTime, "phase %q has negative wall clock %d", ev.Phase, ev.WallNs)
		}
	case obs.KindBrownout:
		if a.down[ev.Node] {
			a.violate(ev.Round, ev.Node, ClassAlternation, "brownout of already-dark node")
		}
		a.down[ev.Node] = true
	case obs.KindRevival:
		if !a.down[ev.Node] {
			a.violate(ev.Round, ev.Node, ClassAlternation, "revival of a node that never browned out")
		}
		a.down[ev.Node] = false
	case obs.KindDropped:
		if ev.Dropped <= 0 {
			a.violate(ev.Round, -1, ClassCounter, "dropped_sends with count %d", ev.Dropped)
		}
	case obs.KindEval, obs.KindCell:
	default:
		a.violate(ev.Round, ev.Node, ClassStructure, "unknown event kind %q", ev.Kind)
	}
	a.seq++
}

// checkCounters validates a round_end's participation counters. A
// VTime-stamped round_end counts the steps trained since the last tick,
// which a node takes many of, so only a round's trained count is bounded
// by the fleet. Callers hold a.mu.
func (a *Auditor) checkCounters(ev obs.Event) {
	if ev.Trained < 0 || ev.Live < 0 || ev.Depleted < 0 {
		a.violate(ev.Round, -1, ClassCounter, "negative counter (trained=%d live=%d depleted=%d)", ev.Trained, ev.Live, ev.Depleted)
	}
	if a.fleetSize > 0 {
		if !a.vtime && ev.Trained > a.fleetSize || ev.Live > a.fleetSize || ev.Depleted > a.fleetSize {
			a.violate(ev.Round, -1, ClassCounter, "counter exceeds fleet size %d (trained=%d live=%d depleted=%d)", a.fleetSize, ev.Trained, ev.Live, ev.Depleted)
		}
	}
}

// checkEnergy validates one round's energy conservation. Callers hold a.mu.
func (a *Auditor) checkEnergy(ev obs.Event) {
	if !hasEnergy(ev) {
		return
	}
	if ev.HarvestWh < 0 || ev.ConsumedWh < 0 || ev.WastedWh < 0 || ev.ChargeWh < 0 {
		a.violate(ev.Round, -1, ClassEnergy, "negative energy total (harvest=%g consumed=%g wasted=%g charge=%g)",
			ev.HarvestWh, ev.ConsumedWh, ev.WastedWh, ev.ChargeWh)
	}
	a.cumHarvest += ev.HarvestWh
	a.cumConsumed += ev.ConsumedWh
	a.cumWasted += ev.WastedWh
	if a.haveCharge {
		residual := a.prevCharge + ev.HarvestWh - ev.ConsumedWh - ev.WastedWh - ev.ChargeWh
		if tol := EnergyTol(a.cumHarvest, a.cumConsumed, a.cumWasted, ev.ChargeWh); math.Abs(residual) > tol {
			a.violate(ev.Round, -1, ClassEnergy,
				"conservation residual %.3g Wh exceeds tolerance %.3g (prev charge %.6g + harvest %.6g - consumed %.6g - wasted %.6g != charge %.6g)",
				residual, tol, a.prevCharge, ev.HarvestWh, ev.ConsumedWh, ev.WastedWh, ev.ChargeWh)
		}
	}
	a.prevCharge, a.haveCharge = ev.ChargeWh, true
}

// Close runs the end-of-stream checks. It never returns an error — a
// violating stream is a result, not a failure; inspect Ok()/Violations().
func (a *Auditor) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.runs == 0 {
		a.violate(-1, -1, ClassStructure, "empty stream (no run_start)")
		return nil
	}
	if a.openRound >= 0 {
		a.violate(a.openRound, -1, ClassRound, "stream ended with round %d still open", a.openRound)
	}
	if a.ends < a.runs {
		a.violate(-1, -1, ClassStructure, "stream carries %d run_start but %d run_end", a.runs, a.ends)
	}
	return nil
}

// Ok reports whether the stream passed every invariant so far.
func (a *Auditor) Ok() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.violations) == 0
}

// Violations returns a copy of the collected violations (capped at
// maxViolations; Overflow counts the rest).
func (a *Auditor) Violations() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Violation, len(a.violations))
	copy(out, a.violations)
	return out
}

// Overflow returns how many violations were dropped past the cap.
func (a *Auditor) Overflow() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.overflow
}

// Summary renders the audit outcome as one short line plus one line per
// violation.
func (a *Auditor) Summary() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var b strings.Builder
	if len(a.violations) == 0 {
		fmt.Fprintf(&b, "audit: clean (%d events, %d runs)\n", a.seq, a.runs)
		return b.String()
	}
	fmt.Fprintf(&b, "audit: %d violation(s) in %d events\n", len(a.violations)+a.overflow, a.seq)
	for _, v := range a.violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if a.overflow > 0 {
		fmt.Fprintf(&b, "  ... and %d more\n", a.overflow)
	}
	return b.String()
}

// ReadEvents decodes a whole JSONL stream into memory — for callers that
// need several passes (obstool report feeds both the auditor and the
// report builder).
func ReadEvents(r io.Reader) ([]obs.Event, error) {
	var out []obs.Event
	if err := feedEvents(r, func(ev obs.Event) { out = append(out, ev) }); err != nil {
		return nil, err
	}
	return out, nil
}

// feedEvents decodes a JSONL stream line by line into fn.
func feedEvents(r io.Reader, fn func(obs.Event)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return fmt.Errorf("analyze: line %d: not a JSON event: %w", line, err)
		}
		fn(ev)
	}
	return sc.Err()
}

// hasEnergy reports whether a round_end carries the per-round energy
// ledger. All four fields are omitempty, so a fleet with literally zero
// activity and zero charge is indistinguishable from "no fleet" — in
// that degenerate case the round is skipped, which is safe (nothing to
// conserve).
func hasEnergy(ev obs.Event) bool {
	return ev.HarvestWh != 0 || ev.ConsumedWh != 0 || ev.WastedWh != 0 || ev.ChargeWh != 0
}
