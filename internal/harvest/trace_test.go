package harvest

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/rng"
)

// TestDiurnalGoldenValues pins the diurnal generator to hand-computed
// values: peak 1 Wh, 24-round day, zero phase. sin(2π t/24) at t=0,6,12,18
// is 0, 1, 0, -1 (night, clipped to 0), and t=3 gives sin(π/4)=√2/2.
func TestDiurnalGoldenValues(t *testing.T) {
	d, err := NewDiurnal(1, 24, nil)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[int]float64{
		0:  0,
		3:  math.Sqrt2 / 2,
		6:  1,
		9:  math.Sqrt2 / 2,
		12: 0,
		15: 0, // night
		18: 0, // night
		21: 0, // night
		24: 0, // next day wraps
		30: 1, // next day's noon
	}
	for round, want := range golden {
		if got := d.HarvestWh(0, round); math.Abs(got-want) > 1e-12 {
			t.Fatalf("diurnal t=%d: %v, want %v", round, got, want)
		}
	}
}

func TestDiurnalPhaseShiftsNoon(t *testing.T) {
	// Node phase 0.25 advances the day by 6 rounds: its noon is t=0.
	d, err := NewDiurnal(2, 24, func(int) float64 { return 0.25 })
	if err != nil {
		t.Fatal(err)
	}
	if got := d.HarvestWh(0, 0); math.Abs(got-2) > 1e-12 {
		t.Fatalf("phase-shifted noon harvest %v, want 2", got)
	}
	if got := d.HarvestWh(0, 12); got != 0 {
		t.Fatalf("phase-shifted night harvest %v, want 0", got)
	}
}

func TestLongitudePhaseSpread(t *testing.T) {
	phase := LongitudePhase(4)
	want := []float64{0, 0.25, 0.5, 0.75}
	for i, w := range want {
		if got := phase(i); math.Abs(got-w) > 1e-12 {
			t.Fatalf("node %d phase %v, want %v", i, got, w)
		}
	}
}

func TestDiurnalValidates(t *testing.T) {
	if _, err := NewDiurnal(0, 24, nil); err == nil {
		t.Fatal("zero peak should error")
	}
	if _, err := NewDiurnal(1, 1, nil); err == nil {
		t.Fatal("degenerate period should error")
	}
}

func TestMarkovOnOffDeterministicPerSeed(t *testing.T) {
	run := func() []float64 {
		m, err := NewMarkovOnOff(4, 0.5, 0.3, 0.4, 7)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for round := 0; round < 64; round++ {
			for node := 0; node < 4; node++ {
				out = append(out, m.HarvestWh(node, round))
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("markov trace diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// A different seed must eventually diverge.
	m2, _ := NewMarkovOnOff(4, 0.5, 0.3, 0.4, 8)
	diverged := false
	for round := 0; round < 64 && !diverged; round++ {
		for node := 0; node < 4; node++ {
			if m2.HarvestWh(node, round) != a[round*4+node] {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical 64-round trajectories")
	}
}

func TestMarkovOnOffSpendsTimeInBothStates(t *testing.T) {
	m, err := NewMarkovOnOff(1, 1, 0.5, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	on, off := 0, 0
	for round := 0; round < 400; round++ {
		if m.HarvestWh(0, round) > 0 {
			on++
		} else {
			off++
		}
	}
	// Symmetric chain: stationary distribution is 50/50.
	if on < 100 || off < 100 {
		t.Fatalf("chain stuck: on=%d off=%d", on, off)
	}
}

func TestMarkovOnOffValidates(t *testing.T) {
	if _, err := NewMarkovOnOff(0, 1, 0.5, 0.5, 1); err == nil {
		t.Fatal("zero nodes should error")
	}
	if _, err := NewMarkovOnOff(2, 0, 0.5, 0.5, 1); err == nil {
		t.Fatal("zero on-harvest should error")
	}
	if _, err := NewMarkovOnOff(2, 1, 1.5, 0.5, 1); err == nil {
		t.Fatal("probability > 1 should error")
	}
}

// TestTraceMagnitudesRejectNonFinite: a NaN or infinite peak, on-state
// harvest or transition probability is refused, not carried into every
// battery as a NaN charge.
func TestTraceMagnitudesRejectNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewDiurnal(bad, 24, nil); err == nil {
			t.Errorf("NewDiurnal accepted peak %v", bad)
		}
		if _, err := NewMarkovOnOff(2, bad, 0.5, 0.5, 1); err == nil {
			t.Errorf("NewMarkovOnOff accepted on-state harvest %v", bad)
		}
		if _, err := NewMarkovOnOff(2, 1, bad, 0.5, 1); err == nil {
			t.Errorf("NewMarkovOnOff accepted on→off probability %v", bad)
		}
		if _, err := NewMarkovOnOff(2, 1, 0.5, bad, 1); err == nil {
			t.Errorf("NewMarkovOnOff accepted off→on probability %v", bad)
		}
	}
}

func TestReplayWrapsAround(t *testing.T) {
	p, err := NewReplay([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Rounds() != 3 || p.Nodes() != 2 {
		t.Fatalf("shape %dx%d", p.Nodes(), p.Rounds())
	}
	if got := p.HarvestWh(1, 4); got != 4 {
		t.Fatalf("wrapped harvest %v, want 4 (round 4 ≡ 1)", got)
	}
}

func TestReplayValidates(t *testing.T) {
	if _, err := NewReplay(nil); err == nil {
		t.Fatal("empty schedule should error")
	}
	if _, err := NewReplay([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged schedule should error")
	}
	if _, err := NewReplay([][]float64{{-1}}); err == nil {
		t.Fatal("negative harvest should error")
	}
	if _, err := NewReplay([][]float64{{math.NaN()}}); err == nil {
		t.Fatal("NaN harvest should error")
	}
}

func TestReplayCSVRoundTrip(t *testing.T) {
	wh := [][]float64{{0, 0.5, 1.25}, {2, 0, 0.0065}}
	var sb strings.Builder
	if err := WriteReplay(&sb, wh); err != nil {
		t.Fatal(err)
	}
	p, err := ReadReplay(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for round := range wh {
		for node := range wh[round] {
			if got := p.HarvestWh(node, round); got != wh[round][node] {
				t.Fatalf("cell (%d,%d) = %v, want %v", round, node, got, wh[round][node])
			}
		}
	}
}

func TestReadReplayRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad header":  "round,node,wh\n0,0,1\n",
		"no cells":    "round,node,harvest_wh\n",
		"bad round":   "round,node,harvest_wh\nx,0,1\n",
		"bad node":    "round,node,harvest_wh\n0,-1,1\n",
		"bad value":   "round,node,harvest_wh\n0,0,zap\n",
		"duplicate":   "round,node,harvest_wh\n0,0,1\n0,0,2\n",
		"incomplete":  "round,node,harvest_wh\n0,0,1\n1,1,2\n",
		"field count": "round,node,harvest_wh\n0,0\n",
	}
	for name, input := range cases {
		if _, err := ReadReplay(strings.NewReader(input)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestMarkovResetTraceReplaysBitIdentical(t *testing.T) {
	m, err := NewMarkovOnOff(4, 0.01, 0.3, 0.4, 7)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	first := make([][]float64, 4)
	for node := range first {
		first[node] = make([]float64, rounds)
	}
	for tt := 0; tt < rounds; tt++ {
		for node := 0; node < 4; node++ {
			first[node][tt] = m.HarvestWh(node, tt)
		}
	}
	m.ResetTrace()
	fresh, err := NewMarkovOnOff(4, 0.01, 0.3, 0.4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < rounds; tt++ {
		for node := 0; node < 4; node++ {
			replayed := m.HarvestWh(node, tt)
			if replayed != first[node][tt] {
				t.Fatalf("node %d round %d: replay %v, first run %v", node, tt, replayed, first[node][tt])
			}
			if got := fresh.HarvestWh(node, tt); got != replayed {
				t.Fatalf("node %d round %d: reset trace %v, fresh trace %v", node, tt, replayed, got)
			}
		}
	}
}

// TestMarkovChainsAdvanceConcurrently: every node's chain draws from its
// own element of the trace's one stream slice, so distinct nodes advance
// concurrently, one goroutine each (-race checks the elements are
// disjoint), along exactly the trajectory of a serial reference chain on
// rng.Derive(seed, node, markovStreamTag), and fork from it to the same
// forecast.
func TestMarkovChainsAdvanceConcurrently(t *testing.T) {
	const nodes, rounds, horizon = 16, 300, 8
	m, err := NewMarkovOnOff(nodes, 0.01, 0.3, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]float64, nodes)
	var wg sync.WaitGroup
	for node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[node] = make([]float64, rounds+horizon)
			for tt := range rounds {
				got[node][tt] = m.HarvestWh(node, tt)
			}
			m.ForecastWh(node, rounds, got[node][rounds:])
		}()
	}
	wg.Wait()
	for node := range nodes {
		r, on := rng.Derive(11, uint64(node), markovStreamTag), true
		for tt, wh := range got[node] {
			if on {
				on = !r.Bernoulli(0.3)
			} else {
				on = r.Bernoulli(0.4)
			}
			if want := map[bool]float64{true: 0.01}[on]; wh != want {
				t.Fatalf("node %d round %d: harvest %v, the reference chain %v", node, tt, wh, want)
			}
		}
	}
}

// TestDiurnalPeriodicityExact pins that the harvest at round t and round
// t+period are the same bits, for every phase, because the day fraction is
// computed from t mod period.
func TestDiurnalPeriodicityExact(t *testing.T) {
	d, err := NewDiurnal(0.01, 24, LongitudePhase(7))
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 7; node++ {
		for tt := 0; tt < 24; tt++ {
			base := d.HarvestWh(node, tt)
			for _, later := range []int{tt + 24, tt + 240, tt + 24*1000} {
				if got := d.HarvestWh(node, later); got != base {
					t.Fatalf("node %d: round %d harvest %v != round %d harvest %v", node, later, got, tt, base)
				}
			}
		}
	}
}
