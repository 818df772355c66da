package harvest

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Replay I/O: harvest schedules travel as long-form CSV so recorded ambient
// traces (solar logs, RF measurements) can be shipped, inspected, and
// replayed.
//
// Format (header required, rows in any order, every (round, node) cell of
// the rectangle exactly once):
//
//	round,node,harvest_wh
//	0,0,0.0065
//	0,1,0

const replayHeader = "round,node,harvest_wh"

// ReadReplay parses a harvest schedule from CSV, validating that the rounds
// and nodes form a complete rectangle with no duplicate cells.
func ReadReplay(r io.Reader) (*Replay, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("harvest: empty replay file")
	}
	if header := strings.TrimSpace(sc.Text()); header != replayHeader {
		return nil, fmt.Errorf("harvest: unexpected replay header %q", header)
	}
	type cell struct{ t, node int }
	values := map[cell]float64{}
	maxT, maxNode := -1, -1
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("harvest: line %d: want 3 fields, got %d", line, len(parts))
		}
		t, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil || t < 0 {
			return nil, fmt.Errorf("harvest: line %d: bad round %q", line, parts[0])
		}
		node, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil || node < 0 {
			return nil, fmt.Errorf("harvest: line %d: bad node %q", line, parts[1])
		}
		wh, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("harvest: line %d: bad harvest: %w", line, err)
		}
		c := cell{t, node}
		if _, dup := values[c]; dup {
			return nil, fmt.Errorf("harvest: line %d: duplicate cell round=%d node=%d", line, t, node)
		}
		values[c] = wh
		if t > maxT {
			maxT = t
		}
		if node > maxNode {
			maxNode = node
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("harvest: replay file has no cells")
	}
	if want := (maxT + 1) * (maxNode + 1); len(values) != want {
		return nil, fmt.Errorf("harvest: replay has %d cells, rectangle %dx%d needs %d",
			len(values), maxT+1, maxNode+1, want)
	}
	wh := make([][]float64, maxT+1)
	for t := range wh {
		wh[t] = make([]float64, maxNode+1)
		for i := range wh[t] {
			wh[t][i] = values[cell{t, i}]
		}
	}
	return NewReplay(wh)
}
