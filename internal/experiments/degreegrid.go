package experiments

import (
	"fmt"
	"io"

	"repro/internal/report"
)

// The degree-coupled harvest grid crosses the topology axis (graph degree)
// with the harvest axis (arrival regime): for every (degree, regime) pair
// it reruns the full 4x4 Γ-schedule search and records the selected best
// schedule. The question it answers is which coupling dominates schedule
// choice — if the best Γ moves when the degree changes but the regime is
// held fixed, topology dominates; if it moves with the regime at fixed
// degree, the arrival process does. Each (degree, regime, Γt, Γs) cell is
// a full simulation, so this workload is the sweep service's reason to
// exist: 3 degrees x 5 regimes x 16 cells = 240 simulations cold, and
// every one of them content-addressed and reusable.

// DefaultDegreeGrid is the standard topology axis: sparser and denser
// neighborhoods around the paper's 6-regular graph.
func DefaultDegreeGrid() []int { return []int{4, 6, 8} }

// DegreeGammaResult is the full degree x regime search. Best is indexed
// [degree][regime], parallel to Degrees and Regimes.
type DegreeGammaResult struct {
	Degrees []int
	Regimes []string
	Traces  []string             // per-regime trace names (degree-independent)
	Best    [][]GammaHarvestCell // Best[di][ri]: winning cell of that 4x4 grid

	// TopologyDistinct is the mean number of distinct best (Γt, Γs)
	// schedules observed across degrees with the regime held fixed;
	// ArrivalDistinct holds the regime axis fixed-degree counterpart. 1.0
	// means the axis never changes the selected schedule.
	TopologyDistinct float64
	ArrivalDistinct  float64
	// Dominant names the axis with the larger mean distinct count:
	// "arrival", "topology", or "neither" on an exact tie.
	Dominant string
}

// TableDegreeGamma runs the Γ-schedule search for every (degree, regime)
// pair and reports which axis — topology or arrival process — dominates
// the choice of best schedule. A nil degrees slice uses DefaultDegreeGrid.
// With o.Sweep attached, all 4x4 grids run through the memoized scheduler,
// so the degree-6 column is shared bit-for-bit with TableGammaHarvest and
// warm reruns recompute nothing.
func TableDegreeGamma(o Options, degrees []int) (*DegreeGammaResult, error) {
	o = o.Defaults()
	res, err := degreeGammaResult(o, degrees, nil)
	if err != nil {
		return nil, err
	}
	res.Render(o.Out)
	fmt.Fprintf(o.Out, "%s\n\n", periodNote(evalSamples(o, valSplit(o))))
	return res, nil
}

// degreeGammaResult is TableDegreeGamma without the rendering; memo is the
// calling sweep server's, nil elsewhere.
func degreeGammaResult(o Options, degrees []int, memo *identityMemo) (*DegreeGammaResult, error) {
	if len(degrees) == 0 {
		degrees = DefaultDegreeGrid()
	}
	res := &DegreeGammaResult{
		Degrees: degrees,
		Regimes: make([]string, len(gammaGridRegimes)),
		Traces:  make([]string, len(gammaGridRegimes)),
		Best:    make([][]GammaHarvestCell, len(degrees)),
	}
	base := newWorld(o, cifar, degrees[0]) // one dataset for every degree's world
	for di, degree := range degrees {
		_, rows, err := gammaHarvest(base.at(degree), memo)
		if err != nil {
			return nil, fmt.Errorf("experiments: degree grid d=%d: %w", degree, err)
		}
		res.Best[di] = make([]GammaHarvestCell, len(rows))
		for ri, row := range rows {
			res.Best[di][ri], res.Regimes[ri], res.Traces[ri] = row.Best, row.Regime, row.Trace
		}
	}
	res.TopologyDistinct, res.ArrivalDistinct, res.Dominant = degreeGammaDominance(res.Best)
	return res, nil
}

// degreeGammaDominance scores both axes by how often moving along them
// changes the selected (Γt, Γs): the per-regime mean of distinct schedules
// across degrees (topology axis) against the per-degree mean of distinct
// schedules across regimes (arrival axis).
func degreeGammaDominance(best [][]GammaHarvestCell) (topo, arrival float64, dominant string) {
	if len(best) == 0 || len(best[0]) == 0 {
		return 0, 0, "neither"
	}
	distinct := func(cells []GammaHarvestCell) int {
		seen := map[[2]int]bool{}
		for _, c := range cells {
			seen[[2]int{c.GammaTrain, c.GammaSync}] = true
		}
		return len(seen)
	}
	nDeg, nReg := len(best), len(best[0])
	for ri := 0; ri < nReg; ri++ {
		col := make([]GammaHarvestCell, nDeg)
		for di := range best {
			col[di] = best[di][ri]
		}
		topo += float64(distinct(col))
	}
	topo /= float64(nReg)
	for di := range best {
		arrival += float64(distinct(best[di]))
	}
	arrival /= float64(nDeg)
	switch {
	case arrival > topo:
		dominant = "arrival"
	case topo > arrival:
		dominant = "topology"
	default:
		dominant = "neither"
	}
	return topo, arrival, dominant
}

// Render writes the best-schedule matrix (one row per degree, one column
// per regime) and the dominance verdict.
func (r *DegreeGammaResult) Render(out io.Writer) {
	header := append([]string{"Degree"}, r.Regimes...)
	tb := report.NewTable("Degree-coupled harvest grid: best (Γt,Γs) per degree x regime", header...)
	for di, d := range r.Degrees {
		row := fmt.Sprintf("%d", d)
		for _, c := range r.Best[di] {
			row += fmt.Sprintf("|Γ%d/%d %.1f%%", c.GammaTrain, c.GammaSync, c.FinalAcc)
		}
		tb.AddRowf("%s", row)
	}
	tb.Render(out)
	fmt.Fprintf(out, "distinct best-Γ per axis: topology %.2f, arrival %.2f — %s dominates schedule choice\n\n",
		r.TopologyDistinct, r.ArrivalDistinct, r.Dominant)
}
