package experiments

import (
	"encoding/json"

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
// only read by JobDegreeGrid and defaults to DefaultDegreeGrid.
type SweepJobParams struct {
	Nodes   int    `json:"nodes,omitempty"`
	Rounds  int    `json:"rounds,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	Degrees []int  `json:"degrees,omitempty"`
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
// share one content-addressed cell store.
func RegisterSweepHandlers(s *sweep.Server) {
	decode := func(raw json.RawMessage) (SweepJobParams, error) {
		var p SweepJobParams
		if len(raw) > 0 {
			if err := json.Unmarshal(raw, &p); err != nil {
				return p, err
			}
		}
		return p, nil
	}
	s.Handle(JobGammaGrid, func(r *sweep.Runner, raw json.RawMessage) (any, error) {
		p, err := decode(raw)
		if err != nil {
			return nil, err
		}
		_, rows, err := gammaHarvest(p.options(r))
		return rows, err
	})
	s.Handle(JobDegreeGrid, func(r *sweep.Runner, raw json.RawMessage) (any, error) {
		p, err := decode(raw)
		if err != nil {
			return nil, err
		}
		return degreeGammaResult(p.options(r), p.Degrees)
	})
}
