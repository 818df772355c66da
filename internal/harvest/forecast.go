package harvest

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Charge forecasting: the trace generators are known to the simulator but
// were invisible to policies, so no policy could plan against the future of
// its own harvest. A Forecaster closes that gap — the engine asks it for a
// per-node lookahead window each round and threads the prediction through
// core.RoundContext.Forecast, where planning policies (HorizonPlan) consume
// it. Three implementations span the knowledge spectrum: Oracle reads the
// generator itself (perfect information, the planning upper bound),
// NoisyOracle corrupts it with reproducible noise (sensitivity studies),
// and Persistence predicts tomorrow from yesterday (deployable knowledge).

// Forecaster predicts per-node harvest arrivals. Forecast must not mutate
// any generator state and must be safe for concurrent use across distinct
// nodes — the engine calls it from the per-node training fan-out.
type Forecaster interface {
	// Forecast fills out[k] with the predicted energy (Wh) node will
	// harvest during round t+k, for k = 0..len(out)-1. t is the round
	// being decided; its harvest has not arrived yet.
	Forecast(node, t int, out []float64)
	// Name identifies the forecaster in reports.
	Name() string
}

// ForecastObserver is implemented by forecasters that learn from realized
// arrivals (Persistence). The engine calls Observe exactly once per closed
// round, serially, after the fleet's battery update; arrivedWh is the
// per-node energy that arrived that round (stored plus wasted) and is only
// valid for the duration of the call.
type ForecastObserver interface {
	Observe(t int, arrivedWh []float64)
}

// Lookahead is implemented by traces whose future can be revealed without
// advancing generator state: pure-function traces compute it directly,
// stateful ones fork their chains (see MarkovOnOff.ForecastWh). All four
// built-in traces implement it.
//
// t must be the generator's present: the round the next HarvestWh call
// will realize. Pure-function traces honor any t, but a stateful trace
// can only fork from its live state — MarkovOnOff forecasts from wherever
// its chains currently stand regardless of t — so forecasting the past,
// or a future the chain has not reached, is not part of the contract.
// The engine always satisfies this (it forecasts round t while deciding
// round t, before EndRound(t) advances the trace).
type Lookahead interface {
	// ForecastWh fills out[k] with the exact energy node will harvest in
	// round t+k, leaving the generator untouched.
	ForecastWh(node, t int, out []float64)
}

// The built-in traces all support lookahead.
var (
	_ Lookahead = Constant{}
	_ Lookahead = (*Diurnal)(nil)
	_ Lookahead = (*MarkovOnOff)(nil)
	_ Lookahead = (*Replay)(nil)
)

// Oracle forecasts by reading the trace generator itself: predictions are
// byte-identical to the subsequently realized arrivals (up to a Replay
// recording's final row, past which the forecast clamps to zero). It is
// the perfect-information upper bound for planning policies.
type Oracle struct {
	trace Trace
	look  Lookahead
}

// NewOracle wraps a trace that supports lookahead; traces that do not
// implement Lookahead are rejected rather than silently mispredicted.
func NewOracle(trace Trace) (*Oracle, error) {
	if trace == nil {
		return nil, fmt.Errorf("harvest: nil trace")
	}
	look, ok := trace.(Lookahead)
	if !ok {
		return nil, fmt.Errorf("harvest: trace %s does not support lookahead (implement Lookahead)", trace.Name())
	}
	return &Oracle{trace: trace, look: look}, nil
}

// Forecast reads the trace's future verbatim.
func (o *Oracle) Forecast(node, t int, out []float64) { o.look.ForecastWh(node, t, out) }

// Name returns e.g. "oracle(diurnal(peak=0.01,period=24))".
func (o *Oracle) Name() string { return "oracle(" + o.trace.Name() + ")" }

// noiseStreamTag derives the per-(node, round) noise streams of NoisyOracle.
const noiseStreamTag = 0x5eefc4

// NoisyOracle is the oracle with reproducible multiplicative error: each
// predicted value is scaled by max(0, 1 + sigma·z) with z a standard
// normal drawn from a stream derived from (seed, node, t). The noise is a
// pure function of those coordinates — re-forecasting the same round gives
// the same corruption, and no call order or worker count can change it.
type NoisyOracle struct {
	oracle *Oracle
	sigma  float64
	seed   uint64
}

// NewNoisyOracle validates sigma >= 0 and wraps the trace's oracle.
func NewNoisyOracle(trace Trace, sigma float64, seed uint64) (*NoisyOracle, error) {
	if !(sigma >= 0 && sigma <= math.MaxFloat64) {
		return nil, fmt.Errorf("harvest: forecast noise %v is not finite and ≥ 0", sigma)
	}
	oracle, err := NewOracle(trace)
	if err != nil {
		return nil, err
	}
	return &NoisyOracle{oracle: oracle, sigma: sigma, seed: seed}, nil
}

// Forecast reads the true future and corrupts it.
func (n *NoisyOracle) Forecast(node, t int, out []float64) {
	n.oracle.Forecast(node, t, out)
	r := rng.Derive(n.seed, uint64(node), uint64(t), noiseStreamTag)
	for k := range out {
		scale := 1 + n.sigma*r.NormFloat64()
		if scale < 0 {
			scale = 0
		}
		out[k] *= scale
	}
}

// Name returns e.g. "noisy-oracle(sigma=0.3,markov(...))".
func (n *NoisyOracle) Name() string {
	return fmt.Sprintf("noisy-oracle(sigma=%g,%s)", n.sigma, n.oracle.trace.Name())
}

// Persistence predicts that tomorrow looks like today: the forecast for
// round t+k is the arrival observed one period earlier at the same phase
// of the cycle. Until a phase has been observed the forecaster falls back
// to the node's most recent arrival (flat persistence), and before any
// observation it predicts zero — the conservative cold start of a freshly
// deployed device that has not yet seen a full day.
//
// Persistence carries run state (its observation history); like a harvest
// fleet it must be rebuilt or Reset between runs.
type Persistence struct {
	period   int
	hist     [][]float64 // hist[node][t mod period]: newest arrival at that phase
	last     []float64   // most recent arrival per node
	observed int         // rounds observed so far
}

// NewPersistence returns a persistence forecaster for a fleet of the given
// size with the given cycle length in rounds.
func NewPersistence(nodes, period int) (*Persistence, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("harvest: persistence forecaster for %d nodes", nodes)
	}
	if period < 1 {
		return nil, fmt.Errorf("harvest: persistence period %d < 1 round", period)
	}
	hist := make([][]float64, nodes)
	for i := range hist {
		hist[i] = make([]float64, period)
	}
	return &Persistence{period: period, hist: hist, last: make([]float64, nodes)}, nil
}

// Observe records round t's realized arrivals (ForecastObserver).
func (p *Persistence) Observe(t int, arrivedWh []float64) {
	slot := t % p.period
	for i, wh := range arrivedWh {
		p.hist[i][slot] = wh
		p.last[i] = wh
	}
	p.observed = t + 1
}

// Forecast predicts each future round from the newest observation at the
// same cycle phase, falling back to flat persistence of the last arrival
// while the first cycle is still filling in.
func (p *Persistence) Forecast(node, t int, out []float64) {
	for k := range out {
		slot := (t + k) % p.period
		switch {
		case p.observed >= p.period || slot < p.observed:
			out[k] = p.hist[node][slot]
		case p.observed > 0:
			out[k] = p.last[node]
		default:
			out[k] = 0
		}
	}
}

// Consumed reports whether the forecaster carries observations from a
// prior run — state a new run would silently inherit. sim.Run rejects a
// consumed forecaster the same way it rejects a consumed fleet; call
// Reset (or build a fresh forecaster) between runs.
func (p *Persistence) Consumed() bool { return p.observed > 0 }

// Reset forgets all observations, rewinding the forecaster to its
// construction state for a fresh run.
func (p *Persistence) Reset() {
	for i := range p.hist {
		for j := range p.hist[i] {
			p.hist[i][j] = 0
		}
		p.last[i] = 0
	}
	p.observed = 0
}

// Name returns e.g. "persistence(period=24)".
func (p *Persistence) Name() string { return fmt.Sprintf("persistence(period=%d)", p.period) }
