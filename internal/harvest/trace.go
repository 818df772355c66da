package harvest

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/rng"
)

// Trace generates the ambient energy arriving at each node each round.
//
// A Fleet calls HarvestWh(node, t) exactly once per node per round, with t
// strictly increasing; stateful traces (MarkovOnOff) rely on this call
// discipline. Implementations keep all mutable state strictly per-node so
// concurrent calls for distinct nodes are race-free and deterministic.
type Trace interface {
	// HarvestWh returns the energy (Wh) node harvests during round t.
	HarvestWh(node, t int) float64
	// Name identifies the trace in reports.
	Name() string
}

// TraceResetter is implemented by stateful traces that can rewind to their
// initial state — re-deriving any per-node RNG streams from the original
// seed, so the replayed trajectory is bit-identical to the first one.
// Fleet.Reset calls it when present; stateless traces (Constant, Diurnal,
// Replay are pure functions of (node, t)) need no reset. Custom stateful
// Trace implementations must implement it for their fleets to be reusable
// across runs.
type TraceResetter interface {
	ResetTrace()
}

// Constant harvests the same amount every round on every node. Wh = 0 models
// the paper's no-recharge setting where batteries only drain.
type Constant struct{ Wh float64 }

// HarvestWh returns the constant amount.
func (c Constant) HarvestWh(int, int) float64 { return c.Wh }

// ForecastWh fills out with the constant amount (Lookahead).
func (c Constant) ForecastWh(_, _ int, out []float64) {
	for k := range out {
		out[k] = c.Wh
	}
}

// Name returns e.g. "constant(0.005)".
func (c Constant) Name() string { return fmt.Sprintf("constant(%g)", c.Wh) }

// Diurnal is a clipped solar sinusoid: nodes harvest
//
//	max(0, PeakWh * sin(2π (t/Period + phase(node))))
//
// so each simulated day is Period rounds, half of it night (zero harvest).
// The per-node phase places nodes at different longitudes: a fleet spread
// around the globe trains in waves as the sun moves.
type Diurnal struct {
	peakWh float64
	period int
	phase  func(node int) float64
}

// NewDiurnal validates and returns a diurnal trace. phase maps a node to its
// day-fraction offset in [0, 1); nil means all nodes share the same sun.
func NewDiurnal(peakWh float64, period int, phase func(node int) float64) (*Diurnal, error) {
	if !(peakWh > 0 && peakWh < math.Inf(1)) {
		return nil, fmt.Errorf("harvest: diurnal peak %v is not positive and finite", peakWh)
	}
	if period < 2 {
		return nil, fmt.Errorf("harvest: diurnal period %d < 2 rounds", period)
	}
	if phase == nil {
		phase = func(int) float64 { return 0 }
	}
	return &Diurnal{peakWh: peakWh, period: period, phase: phase}, nil
}

// HarvestWh returns the clipped sinusoid at round t for the node's phase.
// The day fraction is computed from t mod period, so the value for round t
// is bit-identical to the value for round t+period: the sun on day two is
// exactly the sun on day one. (Dividing the raw round index instead would
// drift by an ulp across day boundaries.)
func (d *Diurnal) HarvestWh(node, t int) float64 {
	frac := math.Mod(float64(t%d.period)/float64(d.period)+d.phase(node), 1)
	if s := math.Sin(2 * math.Pi * frac); s > 0 {
		return d.peakWh * s
	}
	return 0
}

// ForecastWh fills out[k] with the exact sinusoid value of round t+k
// (Lookahead): the sun's future is a pure function of time.
func (d *Diurnal) ForecastWh(node, t int, out []float64) {
	for k := range out {
		out[k] = d.HarvestWh(node, t+k)
	}
}

// Name returns e.g. "diurnal(peak=0.01,period=24)".
func (d *Diurnal) Name() string {
	b := appendG(append(make([]byte, 0, 64), "diurnal(peak="...), d.peakWh)
	return string(append(strconv.AppendInt(append(b, ",period="...), int64(d.period), 10), ')'))
}

// appendG appends v as fmt's %g writes it: a name formatted this way
// allocates only its string.
func appendG(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// LongitudePhase spreads n nodes evenly around the globe: node i sits at
// phase i/n of a day. Use as the phase function of NewDiurnal.
func LongitudePhase(n int) func(node int) float64 {
	return func(node int) float64 { return float64(node%n) / float64(n) }
}

// MarkovOnOff is a bursty two-state source (RF, wind, kinetic): each node
// runs an independent on-off Markov chain and harvests OnWh per round while
// on. Chains start in the on state; transitions use per-node RNG streams
// derived from the seed, so trajectories are reproducible bit-for-bit.
type MarkovOnOff struct {
	onWh           float64
	pOnOff, pOffOn float64
	on             []bool
	// rngs[i] is node i's stream and rngs[n+i] its state at construction:
	// both halves are windows of one slice.
	rngs []rng.RNG
}

// markovStreamTag derives the per-node chain streams from the seed.
const markovStreamTag = 0x4a2e57

// NewMarkovOnOff validates and returns a chain trace for n nodes.
func NewMarkovOnOff(n int, onWh, pOnOff, pOffOn float64, seed uint64) (*MarkovOnOff, error) {
	switch {
	case n < 1:
		return nil, fmt.Errorf("harvest: markov trace for %d nodes", n)
	case !(onWh > 0 && onWh < math.Inf(1)):
		return nil, fmt.Errorf("harvest: on-state harvest %v is not positive and finite", onWh)
	case !(pOnOff >= 0 && pOnOff <= 1 && pOffOn >= 0 && pOffOn <= 1):
		return nil, fmt.Errorf("harvest: markov probabilities (%v, %v) outside [0,1]", pOnOff, pOffOn)
	}
	m := &MarkovOnOff{onWh: onWh, pOnOff: pOnOff, pOffOn: pOffOn, on: make([]bool, n), rngs: make([]rng.RNG, 2*n)}
	for i := range n {
		rng.DeriveTo(&m.rngs[n+i], seed, uint64(i), markovStreamTag)
	}
	m.ResetTrace()
	return m, nil
}

// ResetTrace rewinds every chain to the on state and every per-node RNG
// stream to its state at construction, in place, so the next trajectory is
// bit-identical to a freshly constructed trace (TraceResetter). It
// allocates nothing: every fleet built on the trace calls it.
func (m *MarkovOnOff) ResetTrace() {
	for i := range m.on {
		m.on[i] = true
	}
	copy(m.rngs, m.rngs[len(m.on):])
}

// HarvestWh advances node's chain one step and returns its harvest. It must
// be called exactly once per (node, round); see Trace.
func (m *MarkovOnOff) HarvestWh(node, _ int) float64 {
	r := &m.rngs[node]
	if m.on[node] {
		if r.Bernoulli(m.pOnOff) {
			m.on[node] = false
		}
	} else if r.Bernoulli(m.pOffOn) {
		m.on[node] = true
	}
	if m.on[node] {
		return m.onWh
	}
	return 0
}

// ForecastWh forks node's chain — a copy of its on/off state and of its
// RNG stream — and replays it len(out) steps into the future
// (Lookahead). The live chain is never touched, so forecasting any number
// of times leaves the subsequently realized trajectory bit-identical, and
// the forecast itself is exactly what HarvestWh will return for those
// rounds. The round parameter is ignored: a chain can only be forked from
// its live state, so the forecast starts at the generator's present (the
// round the next HarvestWh call realizes — see Lookahead). Safe for
// concurrent use across distinct nodes.
func (m *MarkovOnOff) ForecastWh(node, _ int, out []float64) {
	r, on := m.rngs[node], m.on[node]
	for k := range out {
		if on {
			if r.Bernoulli(m.pOnOff) {
				on = false
			}
		} else if r.Bernoulli(m.pOffOn) {
			on = true
		}
		if on {
			out[k] = m.onWh
		} else {
			out[k] = 0
		}
	}
}

// Name returns e.g. "markov(on=0.01,p10=0.2,p01=0.3)".
func (m *MarkovOnOff) Name() string {
	b := appendG(append(make([]byte, 0, 64), "markov(on="...), m.onWh)
	b = appendG(append(appendG(append(b, ",p10="...), m.pOnOff), ",p01="...), m.pOffOn)
	return string(append(b, ')'))
}

// Replay plays back a recorded harvest schedule: wh[t][node] watt-hours,
// wrapping around when the run outlives the recording. Build one directly
// from a matrix or from CSV with ReadReplay.
type Replay struct {
	wh [][]float64
}

// NewReplay validates the schedule: at least one round, rectangular rows,
// non-negative entries.
func NewReplay(wh [][]float64) (*Replay, error) {
	if len(wh) == 0 || len(wh[0]) == 0 {
		return nil, fmt.Errorf("harvest: empty replay schedule")
	}
	nodes := len(wh[0])
	for t, row := range wh {
		if len(row) != nodes {
			return nil, fmt.Errorf("harvest: replay round %d has %d nodes, round 0 has %d", t, len(row), nodes)
		}
		for i, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("harvest: replay round %d node %d has invalid harvest %v", t, i, v)
			}
		}
	}
	return &Replay{wh: wh}, nil
}

// Rounds returns the length of the recording before it wraps.
func (p *Replay) Rounds() int { return len(p.wh) }

// Nodes returns the number of nodes in the recording.
func (p *Replay) Nodes() int { return len(p.wh[0]) }

// HarvestWh returns the recorded value, wrapping the recording cyclically.
func (p *Replay) HarvestWh(node, t int) float64 {
	return p.wh[t%len(p.wh)][node]
}

// ForecastWh reveals the remaining recorded rows (Lookahead): out[k] is the
// row for round t+k, and rounds past the final row clamp to zero harvest.
// A recording is evidence only up to its last row — the cyclic wrap of
// HarvestWh is a simulation convenience, not a prediction — and the naive
// wh[t+k] indexing a forecaster would otherwise reach for panics out of
// range there.
func (p *Replay) ForecastWh(node, t int, out []float64) {
	for k := range out {
		if t+k < len(p.wh) {
			out[k] = p.wh[t+k][node]
		} else {
			out[k] = 0
		}
	}
}

// Name returns e.g. "replay(96x24)".
func (p *Replay) Name() string { return fmt.Sprintf("replay(%dx%d)", p.Nodes(), p.Rounds()) }
