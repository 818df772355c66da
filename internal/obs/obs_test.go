package obs

import (
	"bytes"
	"strings"
	"testing"
)

// A nil probe is the disabled state: every method must be a safe no-op.
func TestNilProbeIsSafe(t *testing.T) {
	var p *Probe
	if p.Enabled() {
		t.Fatal("nil probe reports enabled")
	}
	m := NewManifest("sim", "", 1).Build()
	p.RunStart(&m)
	p.RoundStart(0, "train")
	p.PhaseStart(PhaseTrain)
	p.PhaseEnd(0, PhaseTrain)
	p.Brownout(0, 1)
	p.Revival(0, 1, 3)
	p.DroppedSends(0, 5)
	p.Eval(0, 0.5, 0.1)
	p.RoundEnd(0, RoundStats{})
	p.RunEnd(1, 1)
	p.Emit(Event{Kind: KindRunStart})
	if NewProbe(nil) != nil {
		t.Fatal("NewProbe(nil) should return the disabled (nil) probe")
	}
}

// The probe's event stream, run through the JSONL sink, must round-trip
// through ValidateEvents — the contract of the CI telemetry smoke step.
func TestJSONLStreamValidates(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	p := NewProbe(sink)
	m := NewManifest("sim", "run", 42).Scale(4, 2).Build()
	p.RunStart(&m)
	for round := 0; round < 2; round++ {
		p.RoundStart(round, "train")
		p.PhaseStart(PhaseTrain)
		p.PhaseEnd(round, PhaseTrain)
		p.Brownout(round, 3)
		p.Revival(round, 2, 1)
		p.DroppedSends(round, 4)
		p.Eval(round, 0.7, 0.05)
		p.RoundEnd(round, RoundStats{Trained: 3, Live: 4, HasSoC: true, MeanSoC: 0.5, SoCP50: 0.5, SoCP90: 0.8, SoCP99: 0.9})
	}
	p.RunEnd(2, 6)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("stream does not validate: %v\n%s", err, buf.String())
	}
	if stats.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", stats.Rounds)
	}
	for kind, want := range map[string]int{
		KindRunStart: 1, KindRunEnd: 1, KindRoundStart: 2, KindRoundEnd: 2,
		KindPhase: 2, KindBrownout: 2, KindRevival: 2, KindDropped: 2, KindEval: 2,
	} {
		if stats.Kinds[kind] != want {
			t.Fatalf("%s count = %d, want %d", kind, stats.Kinds[kind], want)
		}
	}
}

func TestDroppedSendsSkipsZero(t *testing.T) {
	mem := NewMemory()
	p := NewProbe(mem)
	p.DroppedSends(0, 0)
	p.DroppedSends(0, 2)
	if n := mem.Count(KindDropped); n != 1 {
		t.Fatalf("dropped events = %d, want 1 (zero counts skipped)", n)
	}
}

func TestValidateEventsRejectsBadStreams(t *testing.T) {
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
		if _, err := ValidateEvents(strings.NewReader(stream)); err == nil {
			t.Errorf("%s: stream validated, want error", name)
		}
	}
	// A well-paired multi-run stream must still validate.
	good := runStart +
		`{"kind":"round_start","round":0,"node":-1}` + "\n" +
		`{"kind":"round_end","round":0,"node":-1}` + "\n" + runEnd +
		runStart + // second segment: round numbering restarts
		`{"kind":"round_start","round":0,"node":-1}` + "\n" +
		`{"kind":"round_end","round":0,"node":-1}` + "\n" + runEnd
	if stats, err := ValidateEvents(strings.NewReader(good)); err != nil || stats.Events != 8 {
		t.Fatalf("multi-run stream rejected: stats=%+v err=%v", stats, err)
	}
}
