package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

const (
	runStart = `{"kind":"run_start","round":-1,"node":-1,"charge_wh":2,"manifest":{"engine":"sim","seed":1,"config_hash":"ab","config":[],"go_version":"x","gomaxprocs":1}}` + "\n"
	round0   = `{"kind":"round_start","round":0,"node":-1}` + "\n"
	runEnd   = `{"kind":"run_end","round":-1,"node":-1,"steps":1}` + "\n"
	// 2 + 0.5 harvested - 0.25 consumed = 2.25 Wh.
	conserved = `{"kind":"round_end","round":0,"node":-1,"harvest_wh":0.5,"consumed_wh":0.25,"charge_wh":2.25}` + "\n"
	leaked    = `{"kind":"round_end","round":0,"node":-1,"harvest_wh":0.5,"consumed_wh":0.25,"charge_wh":3}` + "\n"
)

func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	valid := write("valid.jsonl", runStart+round0+conserved+runEnd)
	unclosed := write("unclosed.jsonl", runStart+round0+runEnd)
	leaking := write("leaking.jsonl", runStart+round0+leaked+runEnd)

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, 2},
		{"bench is gone", []string{"bench"}, 2},
		{"regress is gone", []string{"regress", "a.json", "b.json"}, 2},
		{"events is gone", []string{"events", valid}, 2},
		{"report on a valid stream", []string{"report", valid}, 0},
		{"report on an unclosed round", []string{"report", unclosed}, 1},
		{"report on broken energy conservation", []string{"report", leaking}, 1},
		{"diff with one file", []string{"diff", valid}, 2},
	}
	for _, c := range cases {
		if got := run(c.args, io.Discard, io.Discard); got != c.want {
			t.Errorf("%s: obstool %v exited %d, want %d", c.name, c.args, got, c.want)
		}
	}
}
