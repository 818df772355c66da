package harvest

import "math"

// Continuous virtual time. The round-driven fleet samples a Trace once
// per (node, round); the event-driven async engine lives between rounds —
// a training step starts and ends at arbitrary virtual times, and
// brown-out/wake crossings fall mid-round. ContinuousTrace is the
// continuous-time face that makes this well-defined: EnergyBetween
// integrates the harvest rate over an interval measured in rounds, where
// round k spans [k, k+1).
//
// Two kinds of implementation exist. The pure-function traces integrate
// exactly: Constant and Diurnal via closed form (Diurnal's continuous face
// is the underlying clipped sinusoid itself, of which the per-round sample
// is the rate at the round's start), Replay as the exact sum of its
// recorded piecewise-constant rows. Stateful traces (MarkovOnOff) cannot
// be integrated in closed form; the Integrator adapter step-integrates
// them, sampling HarvestWh once per (node, round) behind per-node caches
// so the Trace call discipline is preserved no matter how often intervals
// are queried or how far crossing searches look ahead.
type ContinuousTrace interface {
	Trace
	// EnergyBetween returns the energy (Wh) arriving at node over the
	// virtual interval [t0, t1), time measured in rounds. It is additive
	// over adjacent intervals and 0 when t1 <= t0. Implementations keep
	// any mutable state strictly per-node (see Integrator).
	EnergyBetween(node int, t0, t1 float64) float64
}

// AsContinuous gives any trace a continuous-time face: traces that already
// implement ContinuousTrace are returned as-is, stateful ones are wrapped
// in a step-integrating adapter sized for n nodes.
func AsContinuous(t Trace, n int) ContinuousTrace {
	if ct, ok := t.(ContinuousTrace); ok {
		return ct
	}
	return NewIntegrator(t, n)
}

// The pure-function traces integrate without an adapter.
var (
	_ ContinuousTrace = Constant{}
	_ ContinuousTrace = (*Diurnal)(nil)
	_ ContinuousTrace = (*Replay)(nil)
	_ ContinuousTrace = (*Integrator)(nil)
)

// EnergyBetween integrates the constant rate exactly: Wh per round times
// the interval length (ContinuousTrace).
func (c Constant) EnergyBetween(_ int, t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	return c.Wh * (t1 - t0)
}

// EnergyBetween integrates the clipped solar sinusoid in closed form
// (ContinuousTrace): with x = t/Period + phase(node) the instantaneous
// rate is PeakWh·max(0, sin 2πx), whose antiderivative over one period is
// 1/π·PeakWh·Period (daylight half contributes (1−cos 2πx)/2π, night
// contributes nothing). The per-round HarvestWh sample is this rate at the
// round's start; the integral is exact for the continuous sun, not a sum
// of the samples. A night interval's two cumulatives can differ by
// round-off of either sign; it is never below 0.
func (d *Diurnal) EnergyBetween(node int, t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	p := float64(d.period)
	ph := d.phase(node)
	return max(0, d.peakWh*p*(diurnalCum(t1/p+ph)-diurnalCum(t0/p+ph)))
}

// diurnalCum is the closed-form cumulative ∫₀ˣ max(0, sin 2πv) dv: each
// whole period contributes 1/π, the fractional part contributes the
// daylight arc up to min(frac, 1/2).
func diurnalCum(x float64) float64 {
	n := math.Floor(x)
	y := x - n
	if y > 0.5 {
		y = 0.5
	}
	return n/math.Pi + (1-math.Cos(2*math.Pi*y))/(2*math.Pi)
}

// EnergyBetween sums the recorded piecewise-constant schedule exactly over
// [t0, t1), wrapping cyclically like HarvestWh (ContinuousTrace). The
// recording is the rate: round k delivers wh[k mod Rounds][node] spread
// uniformly over [k, k+1).
func (p *Replay) EnergyBetween(node int, t0, t1 float64) float64 {
	return stepEnergyBetween(func(k int) float64 { return p.wh[k%len(p.wh)][node] }, t0, t1)
}

// stepEnergyBetween integrates a piecewise-constant rate (rate(k) Wh per
// round over [k, k+1)) across [t0, t1), clamping negative times to 0.
func stepEnergyBetween(rate func(k int) float64, t0, t1 float64) float64 {
	if t0 < 0 {
		t0 = 0
	}
	if t1 <= t0 {
		return 0
	}
	sum := 0.0
	for k := int(math.Floor(t0)); float64(k) < t1; k++ {
		lo := math.Max(t0, float64(k))
		hi := math.Min(t1, float64(k+1))
		if hi > lo {
			sum += rate(k) * (hi - lo)
		}
	}
	return sum
}

// Integrator adapts a stateful Trace to the ContinuousTrace contract by
// step integration: the rate over [k, k+1) is HarvestWh(node, k), sampled
// exactly once per (node, round) in increasing round order — the Trace
// call discipline — and cached per node, so repeated interval queries and
// forward-looking crossing searches replay cached rates instead of
// advancing the generator again. The cache grows with the highest round
// touched (one float per node per round), which is fine at event-driven
// scale; the round-time Fleet never builds one.
//
// All mutable state is strictly per-node, so concurrent calls for
// distinct nodes are race-free, matching the Trace contract.
type Integrator struct {
	trace Trace
	rates [][]float64 // rates[node][k]: sampled HarvestWh(node, k)
}

// NewIntegrator wraps trace for a fleet of n nodes.
func NewIntegrator(trace Trace, n int) *Integrator {
	return &Integrator{trace: trace, rates: make([][]float64, n)}
}

// rateAt returns the sampled rate for round k, extending node's cache —
// and advancing the underlying generator — only for rounds not yet
// sampled.
func (in *Integrator) rateAt(node, k int) float64 {
	for next := len(in.rates[node]); next <= k; next++ {
		in.rates[node] = append(in.rates[node], in.trace.HarvestWh(node, next))
	}
	return in.rates[node][k]
}

// EnergyBetween step-integrates the sampled per-round rates over [t0, t1)
// (ContinuousTrace).
func (in *Integrator) EnergyBetween(node int, t0, t1 float64) float64 {
	return stepEnergyBetween(func(k int) float64 { return in.rateAt(node, k) }, t0, t1)
}

// HarvestWh returns round t's sampled rate (Trace). Unlike the wrapped
// generator it is idempotent — the cache absorbs repeats — so the adapter
// relaxes the once-per-round discipline for its callers while honoring it
// toward the generator.
func (in *Integrator) HarvestWh(node, t int) float64 { return in.rateAt(node, t) }

// Name reports the wrapped trace's identity (Trace).
func (in *Integrator) Name() string { return in.trace.Name() }

// ResetTrace rewinds the wrapped generator when it is resettable and
// drops the sampled caches (TraceResetter). Wrapping a stateless trace,
// the caches alone are dropped — resampling is bit-identical anyway.
func (in *Integrator) ResetTrace() {
	if tr, ok := in.trace.(TraceResetter); ok {
		tr.ResetTrace()
	}
	for i := range in.rates {
		in.rates[i] = nil
	}
}
