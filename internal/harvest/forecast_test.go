package harvest

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

// traceFactory builds a fresh trace of one family from a draw's
// parameters, so the property tests below can sweep shapes.
type traceFactory struct {
	name  string
	build func(r *rng.RNG, nodes int) Trace
}

func forecastFactories(seedBase uint64) []traceFactory {
	return []traceFactory{
		{"constant", func(r *rng.RNG, _ int) Trace {
			return Constant{Wh: r.Float64()}
		}},
		{"diurnal", func(r *rng.RNG, nodes int) Trace {
			d, err := NewDiurnal(0.01+r.Float64(), 2+r.Intn(30), LongitudePhase(nodes))
			if err != nil {
				panic(err)
			}
			return d
		}},
		{"replay", func(r *rng.RNG, nodes int) Trace {
			wh := make([][]float64, 4+r.Intn(24))
			for t := range wh {
				wh[t] = make([]float64, nodes)
				for i := range wh[t] {
					wh[t][i] = r.Float64()
				}
			}
			p, err := NewReplay(wh)
			if err != nil {
				panic(err)
			}
			return p
		}},
	}
}

// TestOracleForecastMatchesRealizedProperty is the oracle's defining
// property, 1k draws per trace family: the forecast window issued before
// the rounds happen is byte-identical to the harvest subsequently realized
// by HarvestWh. Replay draws keep the window inside the recording, where
// the recording is still evidence (see TestReplayForecastClampsPastEnd for
// the boundary).
func TestOracleForecastMatchesRealizedProperty(t *testing.T) {
	r := rng.New(0xf0ca)
	for _, f := range forecastFactories(1) {
		for draw := 0; draw < 1000; draw++ {
			nodes := 1 + r.Intn(5)
			trace := f.build(r, nodes)
			oracle, err := NewOracle(trace)
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			start := r.Intn(16)
			window := 1 + r.Intn(12)
			if rp, ok := trace.(*Replay); ok {
				// Stay inside the recording: wrap the start and clip the
				// window to the rows that remain.
				start %= rp.Rounds()
				if max := rp.Rounds() - start; window > max {
					window = max
				}
			}
			node := r.Intn(nodes)
			forecast := make([]float64, window)
			// Realize rounds 0..start-1 first, as a run would.
			for tt := 0; tt < start; tt++ {
				for i := 0; i < nodes; i++ {
					trace.HarvestWh(i, tt)
				}
			}
			oracle.Forecast(node, start, forecast)
			for k := 0; k < window; k++ {
				realized := trace.HarvestWh(node, start+k)
				if math.Float64bits(realized) != math.Float64bits(forecast[k]) {
					t.Fatalf("%s draw %d: node %d round %d: forecast %v, realized %v",
						f.name, draw, node, start+k, forecast[k], realized)
				}
			}
		}
	}
}

// TestMarkovOracleForecastMatchesRealized extends the byte-identity
// property to the stateful chain: the fork-based lookahead predicts
// exactly the trajectory the live chain then realizes.
func TestMarkovOracleForecastMatchesRealized(t *testing.T) {
	r := rng.New(0x3a11)
	for draw := 0; draw < 1000; draw++ {
		nodes := 1 + r.Intn(4)
		m, err := NewMarkovOnOff(nodes, 0.01, r.Float64(), r.Float64(), uint64(draw))
		if err != nil {
			t.Fatal(err)
		}
		start := r.Intn(10)
		for tt := 0; tt < start; tt++ {
			for i := 0; i < nodes; i++ {
				m.HarvestWh(i, tt)
			}
		}
		node := r.Intn(nodes)
		forecast := make([]float64, 1+r.Intn(12))
		m.ForecastWh(node, start, forecast)
		for k := range forecast {
			realized := m.HarvestWh(node, start+k)
			if math.Float64bits(realized) != math.Float64bits(forecast[k]) {
				t.Fatalf("draw %d: node %d step %d: forecast %v, realized %v",
					draw, node, k, forecast[k], realized)
			}
		}
	}
}

// TestMarkovForecastNeverPerturbsChain is the fork-the-RNG check: two
// identical chains, one forecast repeatedly (different nodes, different
// windows) and one never touched, must realize bit-identical trajectories.
func TestMarkovForecastNeverPerturbsChain(t *testing.T) {
	const nodes = 6
	mk := func() *MarkovOnOff {
		m, err := NewMarkovOnOff(nodes, 0.02, 0.3, 0.4, 99)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	probed, clean := mk(), mk()
	r := rng.New(0xbeef)
	scratch := make([]float64, 16)
	for tt := 0; tt < 200; tt++ {
		// Forecast a random node's window — several times — before the
		// round realizes.
		for probes := 0; probes < 1+r.Intn(3); probes++ {
			probed.ForecastWh(r.Intn(nodes), tt, scratch[:1+r.Intn(len(scratch))])
		}
		for i := 0; i < nodes; i++ {
			a := probed.HarvestWh(i, tt)
			b := clean.HarvestWh(i, tt)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("round %d node %d: probed chain %v, clean chain %v — forecasting perturbed the chain", tt, i, a, b)
			}
		}
	}
}

// TestReplayForecastClampsPastEnd is the regression test for the lookahead
// edge: forecasting past a short recording's final row must clamp to zero
// harvest — not panic on index-out-of-range, and not invent the cyclic
// wrap that HarvestWh applies.
func TestReplayForecastClampsPastEnd(t *testing.T) {
	// A short CSV trace: 3 recorded rounds, 2 nodes.
	csv := strings.NewReader(strings.Join([]string{
		"round,node,harvest_wh",
		"0,0,0.5", "0,1,0.25",
		"1,0,0.4", "1,1,0.2",
		"2,0,0.3", "2,1,0.15",
	}, "\n"))
	replay, err := ReadReplay(csv)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 6)
	replay.ForecastWh(0, 1, out) // rounds 1..6 of a 3-round recording
	want := []float64{0.4, 0.3, 0, 0, 0, 0}
	for k := range want {
		if out[k] != want[k] {
			t.Fatalf("forecast %v, want %v", out, want)
		}
	}
	// Entirely past the end: all zero.
	replay.ForecastWh(1, 10, out)
	for k, v := range out {
		if v != 0 {
			t.Fatalf("slot %d past the recording forecast %v, want 0", k, v)
		}
	}
	// The realized trace, by contrast, wraps.
	if got := replay.HarvestWh(0, 3); got != 0.5 {
		t.Fatalf("HarvestWh(0, 3) = %v, want cyclic wrap 0.5", got)
	}
}

// unforeseeable is a trace with no Lookahead: NewOracle must reject it.
type unforeseeable struct{}

func (unforeseeable) HarvestWh(int, int) float64 { return 1 }
func (unforeseeable) Name() string               { return "unforeseeable" }

func TestNewOracleRejectsNonLookaheadTrace(t *testing.T) {
	if _, err := NewOracle(unforeseeable{}); err == nil {
		t.Fatal("oracle over a trace without lookahead should error")
	}
	if _, err := NewOracle(nil); err == nil {
		t.Fatal("nil trace should error")
	}
	if _, err := NewOracle(Constant{1}); err != nil {
		t.Fatalf("constant trace supports lookahead: %v", err)
	}
}

func TestNoisyOracle(t *testing.T) {
	d, err := NewDiurnal(1, 8, LongitudePhase(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, sigma := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		if _, err := NewNoisyOracle(d, sigma, 1); err == nil {
			t.Fatalf("sigma %v should error", sigma)
		}
	}
	// sigma = 0: byte-identical to the oracle.
	exact, err := NewOracle(d)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := NewNoisyOracle(d, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := make([]float64, 8), make([]float64, 8)
	exact.Forecast(2, 3, a)
	zero.Forecast(2, 3, b)
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			t.Fatalf("sigma=0 noisy oracle differs at slot %d: %v vs %v", k, a[k], b[k])
		}
	}
	// Noise is a pure function of (seed, node, round): repeat calls agree,
	// different nodes differ, and values stay non-negative.
	noisy, err := NewNoisyOracle(d, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	n1, n2, other := make([]float64, 8), make([]float64, 8), make([]float64, 8)
	noisy.Forecast(1, 2, n1)
	noisy.Forecast(1, 2, n2)
	noisy.Forecast(2, 2, other)
	same := true
	for k := range n1 {
		if n1[k] != n2[k] {
			t.Fatalf("repeat forecast differs at slot %d", k)
		}
		if n1[k] < 0 {
			t.Fatalf("negative noisy forecast %v", n1[k])
		}
		if n1[k] != other[k] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct nodes saw identical noise")
	}
}

func TestPersistenceForecast(t *testing.T) {
	if _, err := NewPersistence(0, 4); err == nil {
		t.Fatal("zero nodes should error")
	}
	if _, err := NewPersistence(2, 0); err == nil {
		t.Fatal("zero period should error")
	}
	p, err := NewPersistence(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 4)
	// Cold start: nothing observed, forecast zero.
	p.Forecast(0, 0, out)
	for k, v := range out {
		if v != 0 {
			t.Fatalf("cold-start slot %d forecast %v, want 0", k, v)
		}
	}
	// One observation: flat persistence of the last arrival for unseen
	// phases.
	p.Observe(0, []float64{0.5, 0.1})
	p.Forecast(0, 1, out)
	for k, v := range out[:3] {
		if v != 0.5 {
			t.Fatalf("flat-persistence slot %d forecast %v, want 0.5", k, v)
		}
	}
	// Slot 3 of the window is round 4 = phase 0, which has been observed.
	if out[3] != 0.5 {
		t.Fatalf("phase-0 forecast %v, want observed 0.5", out[3])
	}
	// A full day observed: tomorrow's forecast equals today's arrivals,
	// phase by phase.
	day := [][]float64{{1, 10}, {2, 20}, {3, 30}, {4, 40}}
	q, err := NewPersistence(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for tt, arr := range day {
		q.Observe(tt, arr)
	}
	q.Forecast(1, 4, out)
	want := []float64{10, 20, 30, 40}
	for k := range want {
		if out[k] != want[k] {
			t.Fatalf("day-2 forecast %v, want %v", out, want)
		}
	}
	// Reset forgets everything.
	q.Reset()
	q.Forecast(1, 4, out)
	for k, v := range out {
		if v != 0 {
			t.Fatalf("post-Reset slot %d forecast %v, want 0", k, v)
		}
	}
}
