package harvest

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"
)

// WriteReplay writes a harvest schedule (wh[t][node]) as CSV.
func WriteReplay(w io.Writer, wh [][]float64) error {
	if _, err := NewReplay(wh); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, replayHeader); err != nil {
		return err
	}
	for t, row := range wh {
		for i, v := range row {
			if _, err := fmt.Fprintf(bw, "%d,%d,%g\n", t, i, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// FuzzReplayTraceCSV throws arbitrary bytes at the replay CSV parser and
// checks the invariants that hold for anything it accepts:
//
//   - a parsed schedule is a complete rectangle of finite, non-negative
//     values (NewReplay's contract, reachable through the parser);
//   - WriteReplay/ReadReplay round-trips the parsed schedule bit-exactly
//     (%g prints the shortest form that parses back to the same float64);
//   - ForecastWh clamps past the end of the recording to zero instead of
//     wrapping or panicking, for windows starting inside and past the
//     recorded rounds.
func FuzzReplayTraceCSV(f *testing.F) {
	f.Add([]byte("round,node,harvest_wh\n0,0,0.0065\n0,1,0\n"))
	f.Add([]byte("round,node,harvest_wh\n1,0,2\n0,0,1e-3\n"))
	f.Add([]byte("round,node,harvest_wh\n0,0,0.5\n0,0,0.5\n")) // duplicate cell
	f.Add([]byte("round,node,harvest_wh\n0,1,0.5\n"))          // hole in rectangle
	f.Add([]byte("round,node,harvest_wh\n0,0,-1\n"))           // negative harvest
	f.Add([]byte("round,node,harvest_wh\n0,0,NaN\n"))
	f.Add([]byte("not,a,header\n0,0,1\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		replay, err := ReadReplay(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		rounds, nodes := replay.Rounds(), replay.Nodes()
		if rounds < 1 || nodes < 1 {
			t.Fatalf("accepted replay with empty shape %dx%d", rounds, nodes)
		}
		wh := make([][]float64, rounds)
		for tt := 0; tt < rounds; tt++ {
			wh[tt] = make([]float64, nodes)
			for i := 0; i < nodes; i++ {
				v := replay.HarvestWh(i, tt)
				if !(v >= 0) {
					t.Fatalf("accepted invalid harvest %v at round %d node %d", v, tt, i)
				}
				wh[tt][i] = v
			}
		}
		var buf bytes.Buffer
		if err := WriteReplay(&buf, wh); err != nil {
			t.Fatalf("re-serializing an accepted schedule failed: %v", err)
		}
		again, err := ReadReplay(&buf)
		if err != nil {
			t.Fatalf("re-parsing serialized schedule failed: %v", err)
		}
		if again.Rounds() != rounds || again.Nodes() != nodes {
			t.Fatalf("round-trip shape %dx%d, want %dx%d", again.Rounds(), again.Nodes(), rounds, nodes)
		}
		for tt := 0; tt < rounds; tt++ {
			for i := 0; i < nodes; i++ {
				if again.HarvestWh(i, tt) != wh[tt][i] {
					t.Fatalf("round-trip value at round %d node %d: %v, want %v",
						tt, i, again.HarvestWh(i, tt), wh[tt][i])
				}
			}
		}
		// Lookahead clamping: windows reaching past the last recorded row
		// must read zero there, never wrap, never panic.
		out := make([]float64, rounds+2)
		for _, start := range []int{0, rounds - 1, rounds, rounds + 3} {
			replay.ForecastWh(0, start, out)
			for k, v := range out {
				if start+k < rounds {
					if v != wh[start+k][0] {
						t.Fatalf("forecast[%d] from round %d: %v, want recorded %v", k, start, v, wh[start+k][0])
					}
				} else if v != 0 {
					t.Fatalf("forecast[%d] from round %d reaches past the recording but is %v, want 0", k, start, v)
				}
			}
		}
	})
}
