// The sweep server's grid jobs. This file is kept only for the frozen
// bench/sweepd.go, until ROADMAP item 1(b) replaces sweepd_warm and item
// 15 deletes it; until then decodeSweepJobParams keeps its own copy of
// gridsearch's size bounds.

package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/sweep"
)

// Job kinds served by a sweep server with RegisterSweepHandlers installed.
const (
	// JobGammaGrid computes TableGammaHarvest's rows (the 5-regime 4x4 Γ
	// search) and replies with the []GammaHarvestRow; nothing is rendered.
	JobGammaGrid = "gamma-grid"
	// JobDegreeGrid computes TableDegreeGamma's result (degree x regime x
	// Γ) and replies with the DegreeGammaResult; nothing is rendered.
	JobDegreeGrid = "degree-grid"
)

// SweepJobParams is the wire parameter block for both grid jobs. Zero
// fields take Options.Defaults (48 nodes, 64 rounds, seed 42); Degrees is
// only read by JobDegreeGrid and defaults to DefaultDegreeGrid. A block
// with an unknown field, a negative value, more than 4096 nodes, 60000
// rounds or 16 degrees, or a degree outside [1, nodes) is refused.
type SweepJobParams struct {
	Nodes   int    `json:"nodes,omitempty"`
	Rounds  int    `json:"rounds,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	Degrees []int  `json:"degrees,omitempty"`
}

// What one small job frame may make the daemon build, at most.
const (
	maxJobNodes   = 4096
	maxJobRounds  = 60000
	maxJobDegrees = 16
)

// decodeSweepJobParams decodes and bounds a job's parameters before
// anything is allocated or memoized for them; a misspelt field is an
// error, not the default grid.
func decodeSweepJobParams(raw json.RawMessage) (p SweepJobParams, err error) {
	if len(raw) > 0 {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&p); err != nil {
			return p, fmt.Errorf("experiments: job params: %w", err)
		}
	}
	check := func(name string, v, lo, hi int) {
		if err == nil && (v < lo || v > hi) {
			err = fmt.Errorf("experiments: job params: %s %d outside [%d, %d]", name, v, lo, hi)
		}
	}
	check("nodes", p.Nodes, 0, maxJobNodes)
	check("rounds", p.Rounds, 0, maxJobRounds)
	check("number of degrees", len(p.Degrees), 0, maxJobDegrees)
	for _, d := range p.Degrees {
		check("degree", d, 1, p.options(nil).Nodes-1)
	}
	return p, err
}

// options maps wire params onto experiment Options bound to the job's
// scoped runner, so every grid cell flows through the server's shared
// cache and the client's progress stream.
func (p SweepJobParams) options(r *sweep.Runner) Options {
	return Options{Nodes: p.Nodes, Rounds: p.Rounds, Seed: p.Seed, Sweep: r}.Defaults()
}

// RegisterSweepHandlers installs the experiment grid workloads on a sweep
// server. Handlers receive the per-job scoped runner, so hit/miss stats
// and per-cell progress events are reported per client while all jobs
// share one content-addressed cell store and one identityMemo.
func RegisterSweepHandlers(s *sweep.Server) { registerSweepHandlers(s, &identityMemo{}) }

func registerSweepHandlers(s *sweep.Server, memo *identityMemo) {
	s.Handle(JobGammaGrid, func(r *sweep.Runner, raw json.RawMessage) (any, error) {
		p, err := decodeSweepJobParams(raw)
		if err != nil {
			return nil, err
		}
		_, rows, err := gammaHarvest(newWorld(p.options(r), cifar, PaperDegree), memo)
		return rows, err
	})
	s.Handle(JobDegreeGrid, func(r *sweep.Runner, raw json.RawMessage) (any, error) {
		p, err := decodeSweepJobParams(raw)
		if err != nil {
			return nil, err
		}
		return degreeGammaResult(p.options(r), p.Degrees, memo)
	})
}
