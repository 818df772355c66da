package analyze

import (
	"bytes"
	"maps"
	"strings"
	"testing"

	"repro/internal/obs"
)

// streamBuilder assembles synthetic event streams for corruption tests.
type streamBuilder struct{ events []obs.Event }

func (b *streamBuilder) add(ev obs.Event) *streamBuilder {
	b.events = append(b.events, ev)
	return b
}

func testManifest(nodes int) *obs.RunManifest {
	m := obs.NewManifest("sim", "test", 1).Scale(nodes, 4).Build()
	return &m
}

// cleanStream is a well-formed two-round harvest run: conservation holds
// exactly, one node browns out and revives, counters agree.
func cleanStream() []obs.Event {
	b := &streamBuilder{}
	b.add(obs.Event{Kind: obs.KindRunStart, Round: -1, Node: -1, Manifest: testManifest(4), ChargeWh: 2.0})
	b.add(obs.Event{Kind: obs.KindRoundStart, Round: 0, Node: -1, Label: "train"})
	b.add(obs.Event{Kind: obs.KindBrownout, Round: 0, Node: 2})
	b.add(obs.Event{Kind: obs.KindPhase, Round: 0, Node: -1, Phase: "train", WallNs: 400})
	b.add(obs.Event{Kind: obs.KindPhase, Round: 0, Node: -1, Phase: "battery", WallNs: 100})
	// Dyadic energy values so conservation is float-exact:
	// 2.0 + 0.5 harvested - 0.25 consumed - 0.125 wasted = 2.125.
	b.add(obs.Event{Kind: obs.KindRoundEnd, Round: 0, Node: -1, WallNs: 1000,
		Trained: 3, Live: 3, Depleted: 1,
		HarvestWh: 0.5, ConsumedWh: 0.25, WastedWh: 0.125, ChargeWh: 2.125})
	b.add(obs.Event{Kind: obs.KindRoundStart, Round: 1, Node: -1, Label: "train"})
	b.add(obs.Event{Kind: obs.KindRevival, Round: 1, Node: 2, Staleness: 1})
	b.add(obs.Event{Kind: obs.KindDropped, Round: 1, Node: -1, Dropped: 4})
	b.add(obs.Event{Kind: obs.KindEval, Round: 1, Node: -1, MeanAcc: 0.5, StdAcc: 0.1})
	// 2.125 + 0.25 - 0.5 - 0.0 = 1.875.
	b.add(obs.Event{Kind: obs.KindRoundEnd, Round: 1, Node: -1, WallNs: 900,
		Trained: 4, Live: 4,
		HarvestWh: 0.25, ConsumedWh: 0.5, ChargeWh: 1.875})
	b.add(obs.Event{Kind: obs.KindRunEnd, Round: -1, Node: -1, WallNs: 2000, Steps: 2, Trained: 7})
	return b.events
}

func audit(events []obs.Event) *Auditor {
	a := NewAuditor()
	for _, ev := range events {
		a.Emit(ev)
	}
	a.Close()
	return a
}

func TestAuditorCleanStream(t *testing.T) {
	a := audit(cleanStream())
	if !a.Ok() {
		t.Fatalf("clean stream flagged: %v", a.Violations())
	}
	if !strings.Contains(a.Summary(), "audit: clean") {
		t.Fatalf("summary: %q", a.Summary())
	}
}

// Each corruption targets exactly one invariant class; the auditor must
// fire a violation of that class (proving the class is actually checked,
// not vacuously passing).
func TestAuditorDetectsEachInvariantClass(t *testing.T) {
	base := cleanStream
	cases := []struct {
		name    string
		class   string
		corrupt func() []obs.Event
	}{
		{"event-before-run-start", ClassStructure, func() []obs.Event {
			return append([]obs.Event{{Kind: obs.KindEval, Round: 0, Node: -1}}, base()...)
		}},
		{"missing-run-end", ClassStructure, func() []obs.Event {
			evs := base()
			return evs[:len(evs)-1]
		}},
		{"empty-stream", ClassStructure, func() []obs.Event { return nil }},
		{"unknown-kind", ClassStructure, func() []obs.Event {
			evs := base()
			evs[3].Kind = "nonsense"
			return evs
		}},
		{"run-start-without-config-hash", ClassStructure, func() []obs.Event {
			evs := base()
			evs[0].Manifest = nil
			return evs
		}},
		{"round-start-while-open", ClassRound, func() []obs.Event {
			var out []obs.Event
			for _, ev := range base() {
				if ev.Kind == obs.KindRoundEnd && ev.Round == 0 {
					continue // round 1 opens over the still-open round 0
				}
				out = append(out, ev)
			}
			return out
		}},
		{"round-end-closes-other-round", ClassRound, func() []obs.Event {
			evs := base()
			for i := range evs {
				if evs[i].Kind == obs.KindRoundEnd && evs[i].Round == 0 {
					evs[i].Round = 3
				}
			}
			return evs
		}},
		{"round-end-without-start", ClassRound, func() []obs.Event {
			evs := base()
			// Drop the first round_start (index 1).
			return append(evs[:1:1], evs[2:]...)
		}},
		{"round-numbers-regress", ClassRound, func() []obs.Event {
			evs := base()
			for i := range evs {
				if evs[i].Round == 1 {
					evs[i].Round = 0
				}
			}
			return evs
		}},
		{"round-open-at-stream-end", ClassRound, func() []obs.Event {
			return base()[:2] // run_start, round_start 0
		}},
		{"round-left-open", ClassRound, func() []obs.Event {
			var out []obs.Event
			for _, ev := range base() {
				if ev.Kind == obs.KindRoundEnd && ev.Round == 1 {
					continue // round 1 never closes
				}
				out = append(out, ev)
			}
			return out
		}},
		{"energy-conservation-broken", ClassEnergy, func() []obs.Event {
			evs := base()
			for i := range evs {
				if evs[i].Kind == obs.KindRoundEnd && evs[i].Round == 1 {
					evs[i].ChargeWh += 0.05 // leaks 50 mWh from nowhere
				}
			}
			return evs
		}},
		{"energy-negative-total", ClassEnergy, func() []obs.Event {
			evs := base()
			// Negate round 0's drain but keep the conservation arithmetic
			// consistent through both rounds, so only the sign check fires.
			prev := 2.0
			for i := range evs {
				if evs[i].Kind == obs.KindRoundEnd {
					if evs[i].Round == 0 {
						evs[i].ConsumedWh = -evs[i].ConsumedWh
					}
					evs[i].ChargeWh = prev + evs[i].HarvestWh - evs[i].ConsumedWh - evs[i].WastedWh
					prev = evs[i].ChargeWh
				}
			}
			return evs
		}},
		{"revival-without-brownout", ClassAlternation, func() []obs.Event {
			var out []obs.Event
			for _, ev := range base() {
				if ev.Kind == obs.KindBrownout {
					continue
				}
				out = append(out, ev)
			}
			return out
		}},
		{"double-brownout", ClassAlternation, func() []obs.Event {
			var out []obs.Event
			for _, ev := range base() {
				out = append(out, ev)
				if ev.Kind == obs.KindBrownout {
					out = append(out, ev) // same node browns out twice
				}
			}
			return out
		}},
		{"run-end-round-count-wrong", ClassCounter, func() []obs.Event {
			evs := base()
			evs[len(evs)-1].Steps = 5
			return evs
		}},
		{"run-end-trained-total-wrong", ClassCounter, func() []obs.Event {
			evs := base()
			evs[len(evs)-1].Trained = 99
			return evs
		}},
		{"trained-exceeds-fleet", ClassCounter, func() []obs.Event {
			evs := base()
			for i := range evs {
				if evs[i].Kind == obs.KindRoundEnd && evs[i].Round == 0 {
					evs[i].Trained = 1000
				}
			}
			// Keep the run_end total consistent so only the fleet-size
			// check fires.
			evs[len(evs)-1].Trained = 1004
			return evs
		}},
		{"phase-time-exceeds-round", ClassPhaseTime, func() []obs.Event {
			evs := base()
			for i := range evs {
				if evs[i].Kind == obs.KindPhase && evs[i].Phase == "train" {
					evs[i].WallNs = 10_000 // > the round's 1000 ns
				}
			}
			return evs
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := audit(tc.corrupt())
			if a.Ok() {
				t.Fatalf("corruption not detected")
			}
			found := false
			for _, v := range a.Violations() {
				if v.Class == tc.class {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("no %s violation; got %v", tc.class, a.Violations())
			}
		})
	}
}

// asyncStream is a well-formed event-driven (roundless, VTime-stamped)
// harvest run: eval-tick ledger checkpoints, each counting the steps
// trained since the last (more than the fleet's four nodes), one
// brown-out/wake cycle, and a run_end whose Steps total is an event-loop
// count, not a tick count — legal only because the segment carries
// virtual time.
func asyncStream() []obs.Event {
	b := &streamBuilder{}
	b.add(obs.Event{Kind: obs.KindRunStart, Round: -1, Node: -1, Manifest: testManifest(4), ChargeWh: 2.0})
	b.add(obs.Event{Kind: obs.KindBrownout, Round: 0, Node: 1, VTime: 12.5})
	b.add(obs.Event{Kind: obs.KindEval, Round: 0, Node: -1, MeanAcc: 0.4, VTime: 50})
	b.add(obs.Event{Kind: obs.KindRoundStart, Round: 0, Node: -1, Label: "tick", VTime: 50})
	// Dyadic values, conservation float-exact: 2.0 + 0.5 - 0.25 - 0.125.
	b.add(obs.Event{Kind: obs.KindRoundEnd, Round: 0, Node: -1, Trained: 13, Live: 3, Depleted: 1,
		HarvestWh: 0.5, ConsumedWh: 0.25, WastedWh: 0.125, ChargeWh: 2.125, VTime: 50})
	b.add(obs.Event{Kind: obs.KindRevival, Round: 1, Node: 1, Staleness: 2, VTime: 75})
	b.add(obs.Event{Kind: obs.KindEval, Round: 1, Node: -1, MeanAcc: 0.5, VTime: 100})
	b.add(obs.Event{Kind: obs.KindRoundStart, Round: 1, Node: -1, Label: "tick", VTime: 100})
	// 2.125 + 0.25 - 0.5 = 1.875.
	b.add(obs.Event{Kind: obs.KindRoundEnd, Round: 1, Node: -1, Trained: 8, Live: 4,
		HarvestWh: 0.25, ConsumedWh: 0.5, ChargeWh: 1.875, VTime: 100})
	b.add(obs.Event{Kind: obs.KindRunEnd, Round: -1, Node: -1, Steps: 37, Trained: 21, VTime: 100})
	return b.events
}

// The event-driven stream must audit clean: two ledger ticks against 37
// loop steps, and 13 steps trained by four nodes between two ticks, are
// not counter violations once the segment is VTime-stamped.
func TestAuditorAcceptsVTimeStreamWithTickLedgers(t *testing.T) {
	if a := audit(asyncStream()); !a.Ok() {
		t.Fatalf("async stream flagged: %v", a.Violations())
	}
	// The vtime gate is per segment: a round-based segment following the
	// async one still has its run_end totals checked.
	evs := asyncStream()
	tail := cleanStream()
	tail[len(tail)-1].Steps = 5 // wrong round count in the sync segment
	if a := audit(append(evs, tail...)); a.Ok() {
		t.Fatal("round-count corruption hidden behind a preceding vtime segment")
	}
}

// Corruptions specific to the event-driven stream: each targets one
// invariant class and must be caught.
func TestAuditorDetectsAsyncStreamCorruption(t *testing.T) {
	base := asyncStream
	cases := []struct {
		name    string
		class   string
		corrupt func() []obs.Event
	}{
		{"vtime-regresses-across-wake", ClassVTime, func() []obs.Event {
			evs := base()
			for i := range evs {
				if evs[i].Kind == obs.KindRevival {
					evs[i].VTime = 40 // behind the tick at vtime 50
				}
			}
			return evs
		}},
		{"brownout-without-revival-in-vtime-order", ClassAlternation, func() []obs.Event {
			// Node 1 browns out a second time at vtime 60 while still down:
			// no revival separates the two interrupts.
			evs := base()
			var out []obs.Event
			for _, ev := range evs {
				if ev.Kind == obs.KindRevival {
					out = append(out, obs.Event{Kind: obs.KindBrownout, Round: 1, Node: 1, VTime: 60})
					continue
				}
				out = append(out, ev)
			}
			return out
		}},
		{"revival-precedes-brownout-in-vtime", ClassAlternation, func() []obs.Event {
			// The wake is stamped before the interrupt on the virtual
			// clock — stream order and vtime order agree, alternation does
			// not: the node revives without ever having browned out.
			evs := base()
			var out []obs.Event
			for _, ev := range evs {
				if ev.Kind == obs.KindBrownout {
					out = append(out, obs.Event{Kind: obs.KindRevival, Round: 0, Node: 1, Staleness: 0, VTime: 10})
				}
				if ev.Kind == obs.KindRevival {
					ev = obs.Event{Kind: obs.KindBrownout, Round: 1, Node: 1, VTime: 75}
				}
				out = append(out, ev)
			}
			return out
		}},
		{"ledger-drifts-across-wake", ClassEnergy, func() []obs.Event {
			// The checkpoint after node 1's revival reports 50 mWh that no
			// arrival accounts for.
			evs := base()
			for i := range evs {
				if evs[i].Kind == obs.KindRoundEnd && evs[i].Round == 1 {
					evs[i].ChargeWh += 0.05
				}
			}
			return evs
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := audit(tc.corrupt())
			if a.Ok() {
				t.Fatal("corruption not detected")
			}
			found := false
			for _, v := range a.Violations() {
				if v.Class == tc.class {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("no %s violation; got %v", tc.class, a.Violations())
			}
		})
	}
}

// A harvest stream whose run_start lacks the charge baseline (fleet
// starting empty) must still audit conservation from the first round_end.
func TestAuditorBaselinesAtFirstRoundEndWithoutRunStartCharge(t *testing.T) {
	evs := cleanStream()
	evs[0].ChargeWh = 0 // omitempty-dropped baseline
	a := audit(evs)
	// Round 0 cannot be checked (no baseline), round 1 can — and is clean.
	if !a.Ok() {
		t.Fatalf("unexpected violations: %v", a.Violations())
	}
	// Now break round 1: with the baseline from round 0's ChargeWh the
	// auditor must still catch it.
	evs = cleanStream()
	evs[0].ChargeWh = 0
	for i := range evs {
		if evs[i].Kind == obs.KindRoundEnd && evs[i].Round == 1 {
			evs[i].ChargeWh += 0.2
		}
	}
	if a := audit(evs); a.Ok() {
		t.Fatal("conservation breach after late baseline not detected")
	}
}

// Streams without rounds (async engine, grid runner) and with several
// run segments must pass: no vacuous round/counter violations.
func TestAuditorToleratesRoundlessAndMultiRunStreams(t *testing.T) {
	b := &streamBuilder{}
	// Segment 1: async-style — evals only, run_end carries step totals.
	b.add(obs.Event{Kind: obs.KindRunStart, Round: -1, Node: -1, Manifest: testManifest(8)})
	b.add(obs.Event{Kind: obs.KindEval, Round: 0, Node: -1, MeanAcc: 0.3})
	b.add(obs.Event{Kind: obs.KindEval, Round: 1, Node: -1, MeanAcc: 0.4})
	b.add(obs.Event{Kind: obs.KindRunEnd, Round: -1, Node: -1, Steps: 4096, Trained: 77})
	// Segment 2: grid-style — cells outside rounds.
	b.add(obs.Event{Kind: obs.KindRunStart, Round: -1, Node: -1, Manifest: testManifest(12)})
	b.add(obs.Event{Kind: obs.KindCell, Round: -1, Node: -1, Label: "g1", Value: 0.5})
	b.add(obs.Event{Kind: obs.KindCell, Round: -1, Node: -1, Label: "g2", Value: 0.6})
	b.add(obs.Event{Kind: obs.KindRunEnd, Round: -1, Node: -1, Steps: 16})
	// Segments 3 and 4: round numbering restarts with every run_start.
	for range 2 {
		b.add(obs.Event{Kind: obs.KindRunStart, Round: -1, Node: -1, Manifest: testManifest(4)})
		b.add(obs.Event{Kind: obs.KindRoundStart, Round: 0, Node: -1})
		b.add(obs.Event{Kind: obs.KindRoundEnd, Round: 0, Node: -1})
		b.add(obs.Event{Kind: obs.KindRunEnd, Round: -1, Node: -1, Steps: 1})
	}
	a := audit(b.events)
	if !a.Ok() {
		t.Fatalf("roundless/multi-run stream flagged: %v", a.Violations())
	}
}

// The violation list must stay bounded on a thoroughly corrupt stream.
func TestAuditorViolationCap(t *testing.T) {
	a := NewAuditor()
	a.Emit(obs.Event{Kind: obs.KindRunStart, Round: -1, Node: -1, Manifest: testManifest(4)})
	for i := 0; i < 500; i++ {
		// Every revival is alternation-invalid.
		a.Emit(obs.Event{Kind: obs.KindRevival, Round: -1, Node: 1})
	}
	a.Emit(obs.Event{Kind: obs.KindRunEnd, Round: -1, Node: -1})
	a.Close()
	if len(a.Violations()) != maxViolations {
		t.Fatalf("retained %d violations, want cap %d", len(a.Violations()), maxViolations)
	}
	if a.Overflow() != 500-maxViolations {
		t.Fatalf("overflow = %d, want %d", a.Overflow(), 500-maxViolations)
	}
}

// Auditing a JSONL stream, as obstool report does, must reject malformed
// JSONL but collect violations from well-formed corrupt streams.
func TestAuditReader(t *testing.T) {
	for _, bad := range []string{"{not json\n", "hello\n"} {
		if _, err := ReadEvents(strings.NewReader(bad)); err == nil {
			t.Fatalf("malformed JSONL %q accepted", bad)
		}
	}
	jsonl := `{"kind":"run_start","round":-1,"node":-1,"manifest":{"engine":"sim","seed":1,"config_hash":"abc","config":[],"go_version":"go","gomaxprocs":1}}
{"kind":"revival","round":0,"node":3}
{"kind":"run_end","round":-1,"node":-1}
`
	events, err := ReadEvents(strings.NewReader(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	a := NewAuditor()
	for _, ev := range events {
		a.Emit(ev)
	}
	a.Close()
	if a.Ok() {
		t.Fatal("revival-without-brownout not flagged in a replayed stream")
	}
}

// Every corrupt JSONL stream is either refused by ReadEvents or flagged by
// the Auditor, and a well-paired multi-run stream, whose round numbering
// restarts with each run_start, reads back whole and audits clean.
func TestAuditorRejectsBadJSONLStreams(t *testing.T) {
	const runStart = `{"kind":"run_start","round":-1,"node":-1,"manifest":{"engine":"sim","seed":1,"config_hash":"ab","config":[],"go_version":"x","gomaxprocs":1}}` + "\n"
	const runEnd = `{"kind":"run_end","round":-1,"node":-1}` + "\n"
	cases := map[string]string{
		"empty":          "",
		"not json":       "hello\n",
		"unknown kind":   `{"kind":"nonsense","round":0,"node":0}` + "\n",
		"no run_start":   `{"kind":"round_start","round":0,"node":-1}` + "\n",
		"no manifest":    `{"kind":"run_start","round":-1,"node":-1}` + "\n",
		"missing runend": runStart,
		"unpaired round_end": runStart +
			`{"kind":"round_end","round":0,"node":-1}` + "\n" + runEnd,
		"double round_start": runStart +
			`{"kind":"round_start","round":0,"node":-1}` + "\n" +
			`{"kind":"round_start","round":1,"node":-1}` + "\n" + runEnd,
		"round_end number mismatch": runStart +
			`{"kind":"round_start","round":0,"node":-1}` + "\n" +
			`{"kind":"round_end","round":3,"node":-1}` + "\n" + runEnd,
		"rounds not monotone": runStart +
			`{"kind":"round_start","round":1,"node":-1}` + "\n" +
			`{"kind":"round_end","round":1,"node":-1}` + "\n" +
			`{"kind":"round_start","round":0,"node":-1}` + "\n" +
			`{"kind":"round_end","round":0,"node":-1}` + "\n" + runEnd,
		"round open at run_end": runStart +
			`{"kind":"round_start","round":0,"node":-1}` + "\n" + runEnd,
		"round open at stream end": runStart +
			`{"kind":"round_start","round":0,"node":-1}` + "\n",
	}
	for name, stream := range cases {
		events, err := ReadEvents(strings.NewReader(stream))
		if err == nil && audit(events).Ok() {
			t.Errorf("%s: stream audited clean, want an error or a violation", name)
		}
	}
	// Each segment's run_end reports its one round, as the engines do.
	const oneRoundEnd = `{"kind":"run_end","round":-1,"node":-1,"steps":1}` + "\n"
	good := runStart +
		`{"kind":"round_start","round":0,"node":-1}` + "\n" +
		`{"kind":"round_end","round":0,"node":-1}` + "\n" + oneRoundEnd +
		runStart +
		`{"kind":"round_start","round":0,"node":-1}` + "\n" +
		`{"kind":"round_end","round":0,"node":-1}` + "\n" + oneRoundEnd
	events, err := ReadEvents(strings.NewReader(good))
	if err != nil || len(events) != 8 {
		t.Fatalf("multi-run stream read back %d events, err=%v; want 8", len(events), err)
	}
	if a := audit(events); !a.Ok() {
		t.Fatalf("multi-run stream flagged:\n%s", a.Summary())
	}
}

// A probe's stream, written by the JSONL sink and read back by ReadEvents,
// must audit clean with every event kind intact: the round trip behind
// `skiptrain -events` and `obstool report`.
func TestJSONLRoundTripAuditsClean(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	p := obs.NewProbe(sink)
	p.RunStart(testManifest(4), 0)
	for round := 0; round < 2; round++ {
		p.RoundStart(round, "train")
		p.PhaseStart(obs.PhaseTrain)
		p.PhaseEnd(round, obs.PhaseTrain)
		p.Brownout(round, 3)
		p.Revival(round, 3, 1)
		p.DroppedSends(round, 4)
		p.Eval(round, 0.7, 0.05)
		p.RoundEnd(obs.Event{Round: round, Trained: 3, Live: 4, MeanSoC: 0.5, SoCP50: 0.5, SoCP90: 0.8, SoCP99: 0.9})
	}
	p.RunEnd(obs.Event{Steps: 2, Trained: 6})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a := audit(events); !a.Ok() {
		t.Fatalf("round-tripped stream flagged:\n%s", a.Summary())
	}
	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	want := map[string]int{
		obs.KindRunStart: 1, obs.KindRunEnd: 1, obs.KindRoundStart: 2, obs.KindRoundEnd: 2,
		obs.KindPhase: 2, obs.KindBrownout: 2, obs.KindRevival: 2, obs.KindDropped: 2, obs.KindEval: 2,
	}
	if !maps.Equal(kinds, want) {
		t.Fatalf("events by kind %v, want %v", kinds, want)
	}
}
