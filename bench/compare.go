package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRecords loads one set of run outputs: every line of the file that
// is a JSON record naming a workload (the lines -out appends and the
// all-workload run prints). Other lines are skipped.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Workload != "" {
			recs = append(recs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s holds no run record", path)
	}
	return recs, nil
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (its default "exclusive" method), so the spreads printed here are
// the ones the acceptance check computes. A single value is its own
// quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// verdict is one row of a comparison: a workload's metric in both sets.
type verdict struct {
	Workload, Metric string
	A, B             [3]float64 // q1, median, q3
	// Worse is how much worse B's median is than A's, as a share of A's,
	// in the metric's own direction (negative = B is better).
	Worse  float64
	Bound  float64 // 0 for per-layer metrics, which have none
	Status string  // ok, worse, noisy, or info (unbounded metric)
}

// compareSets lines two sets of records up by workload, trace mode and
// metric. A bounded metric is "worse" when B's median is worse than A's by
// more than the bound, "noisy" when either set's own interquartile spread
// exceeds the bound (so the medians cannot resolve it), "ok" otherwise.
func compareSets(a, b []record) []verdict {
	type key struct {
		workload, metric string
		trace            int
	}
	collect := func(recs []record) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range recs {
			for name, mv := range r.Metrics {
				k := key{r.Workload, name, r.Trace}
				out[k] = append(out[k], mv.Value)
			}
		}
		return out
	}
	as, bs := collect(a), collect(b)
	var keys []key
	for k := range as {
		if _, ok := bs[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		x, y := keys[i], keys[j]
		if x.workload != y.workload {
			return x.workload < y.workload
		}
		if x.trace != y.trace {
			return x.trace < y.trace
		}
		return x.metric < y.metric
	})
	var out []verdict
	for _, k := range keys {
		v := verdict{Workload: k.workload, Metric: k.metric, Status: "info"}
		v.A[0], v.A[1], v.A[2] = quartiles(as[k])
		v.B[0], v.B[1], v.B[2] = quartiles(bs[k])
		d, _ := lookupMetric(k.metric)
		if v.A[1] != 0 {
			v.Worse = (v.B[1] - v.A[1]) / math.Abs(v.A[1])
			if d.Better == "higher" {
				v.Worse = -v.Worse
			}
		}
		if v.Bound = d.Bound; v.Bound > 0 {
			spread := func(q [3]float64) float64 {
				if q[1] == 0 {
					return 0
				}
				return (q[2] - q[0]) / math.Abs(q[1])
			}
			switch {
			case v.Worse > v.Bound:
				v.Status = "worse"
			case spread(v.A) > v.Bound || spread(v.B) > v.Bound:
				v.Status = "noisy"
			default:
				v.Status = "ok"
			}
		}
		out = append(out, v)
	}
	return out
}

// runCompare prints the comparison of two record files and reports
// whether every bounded metric came out ok.
func runCompare(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-34s %36s %36s %8s %6s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B worse", "bound", "status")
	allOK := true
	for _, v := range compareSets(a, b) {
		bound := "-"
		if v.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*v.Bound)
		}
		cell := func(q [3]float64) string { return fmt.Sprintf("%.6g [%.6g, %.6g]", q[1], q[0], q[2]) }
		fmt.Fprintf(w, "%-14s %-34s %36s %36s %+7.2f%% %6s  %s\n",
			v.Workload, v.Metric, cell(v.A), cell(v.B), 100*v.Worse, bound, v.Status)
		if v.Status == "worse" || v.Status == "noisy" {
			allOK = false
		}
	}
	return allOK, nil
}
