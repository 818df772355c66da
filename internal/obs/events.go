package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// EventStats summarizes a validated event stream.
type EventStats struct {
	Events int
	Rounds int // distinct round_end events
	Kinds  map[string]int
}

// ValidateEvents reads a JSONL event stream and checks its structure: every
// line one JSON-decodable Event with a known kind, the first event a
// run_start carrying a manifest with a config hash, at least one run_end,
// and well-formed round bracketing — every round_start closed by a
// round_end for the same round before the next opens, round numbers
// strictly increasing within a run, and no round left open at a run_end
// or at end of stream. Streams without round events (the async engine,
// the grid runner) pass trivially, and a stream may carry several
// run_start/run_end pairs (the grid runner emits one per regime). This is
// the CI smoke contract for `harvestsim -events`; deeper semantic checks
// (energy conservation, brownout alternation) live in obs/analyze.
func ValidateEvents(r io.Reader) (EventStats, error) {
	stats := EventStats{Kinds: map[string]int{}}
	known := map[string]bool{
		KindRunStart: true, KindRunEnd: true, KindRoundStart: true,
		KindRoundEnd: true, KindPhase: true, KindBrownout: true,
		KindRevival: true, KindDropped: true, KindEval: true, KindCell: true,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	openRound := -1 // round number of the currently open round, -1 when none
	lastRound := -1 // last round opened in this run
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return stats, fmt.Errorf("obs: line %d: not a JSON event: %w", line, err)
		}
		if !known[ev.Kind] {
			return stats, fmt.Errorf("obs: line %d: unknown event kind %q", line, ev.Kind)
		}
		if stats.Events == 0 {
			if ev.Kind != KindRunStart {
				return stats, fmt.Errorf("obs: line %d: stream must open with %s, got %s", line, KindRunStart, ev.Kind)
			}
			if ev.Manifest == nil || ev.Manifest.ConfigHash == "" {
				return stats, fmt.Errorf("obs: line %d: run_start carries no manifest config hash", line)
			}
		}
		switch ev.Kind {
		case KindRunStart:
			if openRound >= 0 {
				return stats, fmt.Errorf("obs: line %d: run_start with round %d still open", line, openRound)
			}
			lastRound = -1
		case KindRunEnd:
			if openRound >= 0 {
				return stats, fmt.Errorf("obs: line %d: run_end with round %d still open", line, openRound)
			}
		case KindRoundStart:
			if openRound >= 0 {
				return stats, fmt.Errorf("obs: line %d: round_start %d while round %d is still open", line, ev.Round, openRound)
			}
			if ev.Round <= lastRound {
				return stats, fmt.Errorf("obs: line %d: round_start %d is not after round %d (rounds must strictly increase)", line, ev.Round, lastRound)
			}
			openRound, lastRound = ev.Round, ev.Round
		case KindRoundEnd:
			if openRound != ev.Round {
				if openRound < 0 {
					return stats, fmt.Errorf("obs: line %d: round_end %d without a matching round_start", line, ev.Round)
				}
				return stats, fmt.Errorf("obs: line %d: round_end %d closes open round %d", line, ev.Round, openRound)
			}
			openRound = -1
		}
		stats.Events++
		stats.Kinds[ev.Kind]++
		if ev.Kind == KindRoundEnd {
			stats.Rounds++
		}
	}
	if err := sc.Err(); err != nil {
		return stats, err
	}
	if stats.Events == 0 {
		return stats, fmt.Errorf("obs: empty event stream")
	}
	if openRound >= 0 {
		return stats, fmt.Errorf("obs: event stream ends with round %d still open", openRound)
	}
	if stats.Kinds[KindRunEnd] == 0 {
		return stats, fmt.Errorf("obs: event stream has no %s (run did not close)", KindRunEnd)
	}
	return stats, nil
}
