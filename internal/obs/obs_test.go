package obs

import "testing"

// A nil probe is the disabled state: every method must be a safe no-op.
func TestNilProbeIsSafe(t *testing.T) {
	var p *Probe
	if p.Enabled() {
		t.Fatal("nil probe reports enabled")
	}
	m := NewManifest("sim", "", 1).Build()
	p.RunStart(&m, 0)
	p.RoundStart(0, "train")
	p.PhaseStart(PhaseTrain)
	p.PhaseEnd(0, PhaseTrain)
	p.Brownout(0, 1)
	p.Revival(0, 1, 3)
	p.DroppedSends(0, 5)
	p.Eval(0, 0.5, 0.1)
	p.RoundEnd(Event{})
	p.RunEnd(Event{Steps: 1, Trained: 1})
	p.Emit(Event{Kind: KindRunStart})
	if NewProbe(nil) != nil {
		t.Fatal("NewProbe(nil) should return the disabled (nil) probe")
	}
}

func TestDroppedSendsSkipsZero(t *testing.T) {
	mem := &recorder{}
	p := NewProbe(mem)
	p.DroppedSends(0, 0)
	p.DroppedSends(0, 2)
	if n := countKind(mem.events, KindDropped); n != 1 {
		t.Fatalf("dropped events = %d, want 1 (zero counts skipped)", n)
	}
}
