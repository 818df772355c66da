package difftest

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/harvest"
)

// TestEnginesBitIdentical runs every cell of the differential table: for
// each (trace × policy × liveness × cutoff) scenario the production fleet
// and the reference fleet of oracle batteries must agree exactly — per-node
// charge, ledgers, statistics, and sketch quantiles — after every round.
func TestEnginesBitIdentical(t *testing.T) {
	for _, s := range Scenarios() {
		t.Run(s.Name, func(t *testing.T) {
			if err := Diff(s); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEnginesBitIdenticalAcrossGOMAXPROCS pins that a 512-node fleet
// produces the same bits at GOMAXPROCS 1 and 8. CI additionally runs the
// whole package under GOMAXPROCS=1 and 8 with -race.
func TestEnginesBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	s := Scenario{
		Name:    "gomaxprocs",
		Nodes:   512,
		Rounds:  16,
		Seed:    7,
		Trace:   TraceDiurnal,
		Policy:  PolicyThreshold,
		Options: harvest.Options{CapacityRounds: 6, InitialSoC: 0.55, CutoffSoC: 0.2},
	}
	run := func(procs int) []float64 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		if err := Diff(s); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		// Also capture the fleet's final state to compare across settings.
		inst, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		for tt := 0; tt < s.Rounds; tt++ {
			for i := 0; i < s.Nodes; i++ {
				// Threshold policies ignore the RNG and need only the
				// minimal battery-backed round context.
				inst.Policy.Participate(i, core.RoundContext{Round: tt, Kind: core.RoundTrain, Battery: inst.Fleet}, nil)
			}
			inst.Fleet.EndRound(tt)
		}
		return inst.Fleet.SoCs()
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("node %d SoC diverges across GOMAXPROCS: 1 worker %v, 8 workers %v", i, serial[i], parallel[i])
		}
	}
}

// TestScenarioBuildersReject pins that malformed cells surface as errors
// instead of half-built instances.
func TestScenarioBuildersReject(t *testing.T) {
	s := Scenarios()[0]
	s.Trace = "no-such-trace"
	if _, err := s.Build(); err == nil {
		t.Fatal("unknown trace kind built successfully")
	}
	s = Scenarios()[0]
	s.Policy = "no-such-policy"
	if _, err := s.Build(); err == nil {
		t.Fatal("unknown policy kind built successfully")
	}
}
