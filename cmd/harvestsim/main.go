// Command harvestsim runs a decentralized-learning experiment on an
// intermittently-powered fleet: per-node batteries, an ambient harvest
// trace, and a charge-aware participation policy (internal/harvest).
//
// A single run, on either engine, is built by experiments' world, as every
// table's run is; the flags add the trace, fleet shape, policy and
// forecaster, and the final line prints the readout and the averaged
// model's column, what a table row reports for the run.
//
// The default configuration is a 96-node diurnal fleet spread over all
// longitudes — the sun sweeps around the globe and nodes train in waves —
// but every piece is under flag control. harvestsim -h lists the traces,
// policies and rejoin rules, and a scenario command line for each.
//
// With -telemetry, the run streams structured telemetry (internal/obs): a
// live progress line on stderr with per-round participation and streamed
// SoC percentiles, and — with -events — a JSONL event stream (run manifest,
// round boundaries, per-phase wall-clock timings, brown-outs, revivals,
// dropped sends, evaluations) for offline analysis. Telemetry never
// perturbs the simulation: the model output is bit-identical with it on or
// off. -audit attaches the streaming invariant auditor
// (internal/obs/analyze) as one more sink: per-round energy conservation,
// brownout/revival alternation, counter monotonicity, and phase-time
// accounting are checked live, and any violation fails the run with exit
// status 1. -pprof serves the standard pprof and expvar handlers for the
// run's duration.
//
// With -async, the round engine is replaced by the event-driven one
// (internal/async): batteries evolve on a continuous virtual clock, a node
// that cannot pay for training gossips and one that cannot pay for a
// gossip sleeps until its solved charge-arrival crossing, and a
// brown-out interrupts an in-flight training step at the exact cutoff
// crossing — the computation is discarded but its partial energy stays
// spent. One trace round spans the fleet-mean step duration, so -rounds,
// -peak, and -period describe the same ambient process as the round
// engine.
//
// With -grid, instead of a single run the command evaluates the full 4x4
// Γtrain x Γsync grid under the harvest regime selected by -trace (each
// cell a fresh-fleet simulation, cells fanned out across workers) and
// reports the best schedule — the harvest-aware version of the paper's
// Figure 3 search. -trace constant -peak 0 recovers the fixed-budget
// baseline.
//
// With -dropdead, a node whose battery sits at or below the -cutoff
// state of charge is browned out for the round: it neither trains nor
// communicates, every edge incident to it is dropped, and the mixing
// matrix is re-normalized over the live subgraph (see docs/ARCHITECTURE.md).
// Without it the engine routes sync traffic through depleted nodes — the
// optimistic baseline.
//
// With -rejoin, a node that recharges past the cutoff resumes with what
// the chosen rejoin rule (internal/sim) makes of its frozen model: stale
// (resume frozen parameters, the baseline), restore (freshest aggregated
// state in the live neighborhood), or catchup (staleness-discounted
// blend).
//
// A flag set where it has no effect — a round-engine flag with -async, a
// single-run flag with -grid, a policy knob under another policy — is a
// usage error (exit status 2), not a silent no-op; config.rules is the
// table. Runs are deterministic: the same seed and flags reproduce the
// same output bit-for-bit.
package main

import (
	_ "expvar" // registers /debug/vars on the -pprof server
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof server
	"os"
	"slices"

	"repro/internal/async"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one harvestsim invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	c := new(config)
	fs := c.flagSet(stderr)
	err := cli.Parse(fs, args)
	if err == nil {
		err = cli.Check(fs, c.rules())
	}
	if err == nil {
		err = c.run(stdout, stderr)
	}
	return cli.Exit(stderr, err)
}

// config is the parsed command line; the flags bind straight into it.
type config struct {
	nodes, degree, rounds, period int
	peak                          float64
	trace, traceFile, policy      string
	fhorizon                      int
	fnoise                        float64
	capacity, initSoC             float64
	minSoC, lowSoC, highSoC       float64
	exponent, cutoff, idle        float64
	dropDead                      bool
	rejoin                        string
	grid, async                   bool
	gt, gs                        int
	lr                            float64
	batch, steps, evalInt         int
	seed                          uint64
	telemetry, audit              bool
	events, pprofAddr             string
	replay                        *harvest.Replay // -tracefile, read once
}

func (c *config) flagSet(stderr io.Writer) *flag.FlagSet {
	fs := cli.NewFlagSet("harvestsim", stderr)
	fs.Usage = func() { usage(fs) }
	fs.IntVar(&c.nodes, "nodes", 96, "fleet size")
	fs.IntVar(&c.degree, "degree", 6, "topology degree")
	fs.IntVar(&c.rounds, "rounds", 96, "total rounds T")
	fs.IntVar(&c.period, "period", 24, "rounds per simulated day (diurnal trace)")
	fs.Float64Var(&c.peak, "peak", 1.5, "trace magnitude as a multiple of the mean per-round training cost")
	fs.StringVar(&c.trace, "trace", "diurnal", "diurnal | constant | markov | csv")
	fs.StringVar(&c.traceFile, "tracefile", "", "replay CSV for -trace csv (round,node,harvest_wh)")
	fs.StringVar(&c.policy, "policy", "proportional", "proportional | threshold | hysteresis | mpc | mpc-persist")
	fs.IntVar(&c.fhorizon, "fhorizon", 0, "mpc policies: forecast window in rounds (0 = one -period day)")
	fs.Float64Var(&c.fnoise, "fnoise", 0, "-policy mpc: multiplicative forecast noise sigma (0 = exact oracle)")
	fs.Float64Var(&c.capacity, "capacity", 12, "battery capacity in training-rounds of energy")
	fs.Float64Var(&c.initSoC, "initsoc", 0.5, "initial state of charge [0,1]; 0 starts batteries empty")
	fs.Float64Var(&c.minSoC, "minsoc", 0.2, "threshold policy: minimum SoC to train")
	fs.Float64Var(&c.lowSoC, "low", 0.15, "hysteresis policy: dormancy threshold")
	fs.Float64Var(&c.highSoC, "high", 0.4, "hysteresis policy: resume threshold")
	fs.Float64Var(&c.exponent, "exponent", 1, "proportional policy: p = SoC^exponent")
	fs.Float64Var(&c.cutoff, "cutoff", 0, "brown-out cutoff as a fraction of capacity [0,1)")
	fs.Float64Var(&c.idle, "idle", 0, "always-on idle draw per round, as a multiple of the mean training cost")
	fs.BoolVar(&c.dropDead, "dropdead", false, "silence browned-out nodes: drop their edges and re-normalize the mixing matrix each round")
	fs.StringVar(&c.rejoin, "rejoin", "", "what a revived node resumes with: stale | restore | catchup (requires -dropdead; empty = off)")
	fs.BoolVar(&c.grid, "grid", false, "run the 4x4 Γtrain x Γsync grid search under the -trace regime instead of a single run")
	fs.BoolVar(&c.async, "async", false, "run the event-driven intermittency engine (internal/async): batteries on a continuous virtual clock, solved wake/brown-out crossings instead of round-boundary settlement")
	fs.IntVar(&c.gt, "gt", 0, "Γtrain (0 = all-train schedule)")
	fs.IntVar(&c.gs, "gs", 0, "Γsync (needs -gt > 0: SkipTrain schedule)")
	fs.Float64Var(&c.lr, "lr", 0.2, "learning rate η")
	fs.IntVar(&c.batch, "batch", 16, "batch size |ξ|")
	fs.IntVar(&c.steps, "steps", 8, "local steps E")
	fs.IntVar(&c.evalInt, "eval", 12, "evaluate every N rounds (and always each round of the last Γ period)")
	fs.Uint64Var(&c.seed, "seed", 42, "experiment seed")
	fs.BoolVar(&c.telemetry, "telemetry", false, "stream telemetry: a live progress line on stderr (internal/obs; see -events)")
	fs.StringVar(&c.events, "events", "", "with -telemetry: write the JSONL event stream to this file")
	fs.BoolVar(&c.audit, "audit", false, "attach the streaming invariant auditor (internal/obs/analyze): check energy conservation, brownout alternation, counters, and phase times live; violations fail the run")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve pprof and expvar on this address (e.g. localhost:6060) for the run's duration")
	return fs
}

// rules is the flag table: each flag that does not apply to every run,
// with the condition under which it does, and the values the scale,
// learning, battery, trace, policy, schedule and rejoin flags take, so a
// value no run takes is refused before the world is built. -grid runs the experiment package's standard grid world (6-regular
// topology, shared fleet shape and policy) and searches the schedule
// itself, reading seed 0 as 42; -async has no per-round dropout or rejoin
// rule.
func (c *config) rules() []cli.Rule {
	roundEngine := func() bool { return !c.grid && !c.async }
	policyIs := func(name string) func() bool {
		return func() bool { return !c.grid && c.policy == name }
	}
	return append(cli.Scale(&c.nodes, &c.rounds, c.degrees), []cli.Rule{
		{Flags: "seed", Want: "a single run (no -grid) or a value ≥ 1", OK: func() bool { return !c.grid || c.seed != 0 }},
		{Flags: "trace", Want: "diurnal, constant, markov, or csv with -tracefile", OK: func() bool {
			return c.trace == "diurnal" || c.trace == "constant" || c.trace == "markov" || c.trace == "csv" && c.traceFile != ""
		}},
		{Flags: "tracefile", Want: "-trace csv", OK: func() bool { return c.trace == "csv" }},
		{Flags: "peak", Want: "a finite value ≥ 0 and -trace diurnal, constant or markov",
			OK: func() bool { return c.trace != "csv" && c.peak >= 0 && c.peak <= math.MaxFloat64 }},
		{Flags: "period", Want: "-trace diurnal or an mpc policy", OK: func() bool { return c.trace == "diurnal" || c.plans() }},
		{Flags: "async", Want: "no -grid and no -policy mpc-persist, which learns from per-round observations the event-driven engine does not make",
			OK: func() bool { return !c.grid && c.policy != "mpc-persist" }},
		{Flags: "degree", Want: "a single run (no -grid) and a regular topology of degree d (" + cli.Topology + ")",
			OK: func() bool { return !c.grid && graph.CheckRegular(c.nodes, c.degree) == nil }},
		{Flags: "eval", Want: "a single run (no -grid) and a value ≥ 0", OK: func() bool { return !c.grid && c.evalInt >= 0 }},
		{Flags: "capacity", Want: "a single run (no -grid) and a finite value ≥ 0", OK: func() bool { return !c.grid && c.capacity >= 0 && c.capacity <= math.MaxFloat64 }},
		{Flags: "initsoc", Want: "a single run (no -grid) and a value in [0, 1]", OK: func() bool { return !c.grid && c.initSoC >= 0 && c.initSoC <= 1 }},
		{Flags: "cutoff", Want: "a single run (no -grid) and a value in [0, 1)", OK: func() bool { return !c.grid && c.cutoff >= 0 && c.cutoff < 1 }},
		{Flags: "idle", Want: "a single run (no -grid) and a finite value ≥ 0", OK: func() bool { return !c.grid && c.idle >= 0 && c.idle <= math.MaxFloat64 }},
		{Flags: "lr", Want: "a finite value > 0", OK: func() bool { return c.lr > 0 && c.lr <= math.MaxFloat64 }},
		{Flags: "batch", Want: "a value ≥ 1", OK: func() bool { return c.batch >= 1 }},
		{Flags: "steps", Want: "a value ≥ 1", OK: func() bool { return c.steps >= 1 }},
		{Flags: "policy", Want: "a single run (no -grid) and a policy -h lists", OK: func() bool { return !c.grid && policies[c.policy].build != nil }},
		{Flags: "gt", Want: "a single run (no -grid) and a value ≥ 1", OK: func() bool { return !c.grid && c.gt >= 1 }},
		{Flags: "gs", Want: "a single run (no -grid), -gt > 0 and a value ≥ 0", OK: func() bool { return !c.grid && c.gt > 0 && c.gs >= 0 }},
		{Flags: "dropdead", Want: "the round engine (no -grid or -async)", OK: roundEngine},
		{Flags: "rejoin", Want: "-dropdead on the round engine and stale, restore, or catchup", OK: func() bool {
			_, err := sim.RuleByName(c.rejoin)
			return roundEngine() && c.dropDead && err == nil
		}},
		{Flags: "minsoc", Want: "-policy threshold", OK: policyIs("threshold")},
		{Flags: "low high", Want: "-policy hysteresis", OK: policyIs("hysteresis")},
		{Flags: "exponent", Want: "-policy proportional", OK: policyIs("proportional")},
		{Flags: "fhorizon", Want: "an mpc policy and a value ≥ 0", OK: func() bool { return c.plans() && c.fhorizon >= 0 }},
		{Flags: "fnoise", Want: "-policy mpc (mpc-persist forecasts from observations) and a finite value ≥ 0",
			OK: func() bool { return !c.grid && c.policy == "mpc" && c.fnoise >= 0 && c.fnoise <= math.MaxFloat64 }},
		{Flags: "events", Want: "-telemetry", OK: func() bool { return c.telemetry }},
	}...)
}

// degrees is the topology degree the run builds: -degree, or the grid's.
func (c *config) degrees() []int {
	if c.grid {
		return []int{experiments.PaperDegree}
	}
	return []int{c.degree}
}

// plans reports whether a single run uses one of the mpc policies, which
// plan over a forecast of the trace.
func (c *config) plans() bool { return !c.grid && policies[c.policy].mpc }

// mpcReserveSoC is the HorizonPlan safety margin: the planned trajectory
// keeps this much capacity above the brown-out cutoff.
const mpcReserveSoC = 0.05

// policySpec is one -policy registry entry: its usage text, whether the
// policy plans over a forecast, and its builder.
type policySpec struct {
	summary string
	mpc     bool
	build   func(c *config) (core.Policy, error)
}

// policies is the -policy registry. Policies read battery state through the
// engine's round context, so builders need only flag values — never the
// fleet.
var policies = map[string]policySpec{
	"proportional": {summary: "train with probability SoC^-exponent (charge-aware Eq. 5)",
		build: func(c *config) (core.Policy, error) { return harvest.NewSoCProportional(c.exponent) }},
	"threshold": {summary: "train whenever SoC >= -minsoc",
		build: func(c *config) (core.Policy, error) { return harvest.NewSoCThreshold(c.minSoC) }},
	"hysteresis": {summary: "go dormant below -low, resume above -high",
		build: func(c *config) (core.Policy, error) { return harvest.NewSoCHysteresis(c.nodes, c.lowSoC, c.highSoC) }},
	"mpc": {mpc: true, summary: `forecast-aware MPC: plan a greedy training knapsack over an
                oracle forecast of the trace (-fhorizon rounds, default one
                -period day; -fnoise corrupts the oracle), execute the first
                decision, replan next round`,
		build: func(*config) (core.Policy, error) { return harvest.NewHorizonPlan(mpcReserveSoC) }},
	"mpc-persist": {mpc: true, summary: `the same planner over a learned forecast: tomorrow looks
                like today (per-node persistence of observed arrivals)`,
		build: func(*config) (core.Policy, error) { return harvest.NewHorizonPlan(mpcReserveSoC) }},
}

// usage prints the flag defaults plus the scenario list: which trace and
// policy combinations exist and what they model.
func usage(fs *flag.FlagSet) {
	out := fs.Output()
	fmt.Fprint(out, `harvestsim simulates decentralized learning on an intermittently-powered
fleet: per-node batteries, an ambient harvest trace, a charge-aware
participation policy, and (optionally) brown-out-aware topology dropout.

Usage:

  harvestsim [flags]

Traces (-trace):
  diurnal   solar sinusoid; each node's phase is its longitude, so the
            sun sweeps the fleet and nodes train in waves (-peak, -period)
  constant  steady trickle of -peak x mean training cost per round;
            -peak 0 is the paper's no-recharge setting
  markov    two-state on/off chain per node: bursty ambient sources (RF,
            wind); on-state harvest is -peak x mean training cost
  csv       replay a recorded per-node trace from -tracefile
            (CSV rows: round,node,harvest_wh)

Policies (-policy):
`)
	for _, name := range slices.Sorted(maps.Keys(policies)) {
		fmt.Fprintf(out, "  %-13s %s\n", name, policies[name].summary)
	}
	fmt.Fprint(out, `
Rejoin rules (-rejoin, with -dropdead):
  stale    resume from parameters frozen at death (baseline)
  restore  resume from the freshest aggregated state in the live
           neighborhood (frozen parameters when isolated)
  catchup  staleness-discounted blend: 2^(-staleness/2) of the frozen
           parameters, the rest from live neighbors' mean

Scenarios:

  harvestsim                                   # 96-node solar fleet
  harvestsim -trace markov -policy hysteresis  # bursty RF-powered fleet
  harvestsim -trace constant -peak 0           # no recharge (paper setting)
  harvestsim -trace csv -tracefile solar.csv   # replay a recorded trace
  harvestsim -dropdead -cutoff 0.25 -idle 0.2  # brown-outs silence radios
  harvestsim -dropdead -cutoff 0.3 -idle 0.25 -rejoin catchup
                                               # catch up with neighbors on rejoin
  harvestsim -policy mpc -cutoff 0.25 -idle 0.2 -dropdead
                                               # plan against the sun: MPC
  harvestsim -policy mpc -fnoise 0.3           # ... with a noisy forecast
  harvestsim -policy mpc-persist               # ... with a learned forecast
  harvestsim -grid -trace diurnal              # Γ-schedule search (4x4 grid)
  harvestsim -grid -trace constant -peak 0     # ... under a fixed budget
  harvestsim -async -cutoff 0.25 -idle 0.2     # event-driven engine: solved
                                               # wake/brown-out crossings
  harvestsim -async -telemetry -audit          # ... with the live auditor
  harvestsim -telemetry -events run.jsonl      # live progress + JSONL events
  harvestsim -telemetry -pprof localhost:6060  # ... with pprof/expvar served

Flags:

`)
	fs.PrintDefaults()
}

// run serves pprof, reads the replay CSV, assembles the telemetry sink
// chain, and runs the selected mode.
func (c *config) run(stdout, stderr io.Writer) error {
	// Bind the pprof listener up front so a bad address is a usage error,
	// not a mid-run surprise. The DefaultServeMux carries the pprof and
	// expvar handlers via their side-effect imports.
	if c.pprofAddr != "" {
		ln, err := net.Listen("tcp", c.pprofAddr)
		if err != nil {
			return cli.Usagef("-pprof: cannot listen on %q: %v", c.pprofAddr, err)
		}
		defer ln.Close()
		fmt.Fprintf(stderr, "pprof/expvar on http://%s/debug/pprof/\n", ln.Addr())
		go http.Serve(ln, nil)
	}
	if c.trace == "csv" {
		if err := c.readReplay(); err != nil {
			return err
		}
	}

	// The telemetry sink chain: a live progress line on stderr plus the
	// JSONL event stream when -events is set, and the streaming invariant
	// auditor when -audit is set (independently of -telemetry). A nil sink
	// yields a nil (disabled) probe, so the engines pay only nil checks.
	var sinks []obs.Sink
	if c.telemetry {
		sinks = append(sinks, obs.NewProgress(stderr))
		if c.events != "" {
			fh, err := os.Create(c.events)
			if err != nil {
				return err
			}
			sinks = append(sinks, obs.NewJSONL(fh))
		}
	}
	var auditor *analyze.Auditor
	if c.audit {
		auditor = analyze.NewAuditor()
		sinks = append(sinks, auditor)
	}
	var sink obs.Sink
	if len(sinks) > 0 {
		sink = obs.Multi(sinks...)
	}
	probe := obs.NewProbe(sink)

	var err error
	switch {
	case c.grid:
		err = c.runGrid(stdout, probe)
	case c.async:
		err = c.runAsync(stdout, probe)
	default:
		err = c.runRound(stdout, probe)
	}
	if sink != nil {
		if cerr := sink.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing telemetry sink: %w", cerr)
		}
	}
	// The audit verdict comes after the sink chain closed: Close runs the
	// auditor's end-of-stream checks (run_end present, no round left open).
	if err == nil && auditor != nil {
		fmt.Fprint(stderr, auditor.Summary())
		if !auditor.Ok() {
			err = fmt.Errorf("audit found %d violation(s)", len(auditor.Violations())+auditor.Overflow())
		}
	}
	return err
}

// readReplay reads the -tracefile CSV once; every mode shares the replay,
// which is stateless.
func (c *config) readReplay() error {
	fh, err := os.Open(c.traceFile)
	if err != nil {
		return err
	}
	defer fh.Close()
	if c.replay, err = harvest.ReadReplay(fh); err != nil {
		return err
	}
	if c.replay.Nodes() < c.nodes {
		return fmt.Errorf("replay covers %d nodes, fleet has %d", c.replay.Nodes(), c.nodes)
	}
	return nil
}

// buildTrace constructs the ambient trace selected by -trace for a fleet
// of nodes, with magnitudes in units of meanTrainWh, the fleet's mean
// per-round training cost. A single run calls it once; -grid once per
// cell, since stateful traces must start fresh in every cell.
func (c *config) buildTrace(nodes int, seed uint64, meanTrainWh float64) (harvest.Trace, error) {
	switch c.trace {
	case "diurnal":
		return harvest.NewDiurnal(c.peak*meanTrainWh, c.period, harvest.LongitudePhase(nodes))
	case "constant":
		return harvest.Constant{Wh: c.peak * meanTrainWh}, nil
	case "markov":
		return harvest.NewMarkovOnOff(nodes, c.peak*meanTrainWh, 0.25, 0.35, seed)
	case "csv":
		return c.replay, nil
	}
	return nil, fmt.Errorf("unknown trace %q", c.trace)
}

// world is what a single run trains on, on either engine: experiments'
// world, the one every table's run is built by, and what the flags add to
// it.
type world struct {
	*experiments.World
	trace      harvest.Trace
	fleet      harvest.Options
	policy     core.Policy
	policyName string             // the policy and, when it plans, its forecast
	forecaster harvest.Forecaster // nil unless an mpc policy plans
	fhorizon   int
	schedule   core.Schedule
}

func (c *config) buildWorld() (*world, error) {
	o := experiments.Options{Nodes: c.nodes, Rounds: c.rounds, LR: c.lr, BatchSize: c.batch, LocalSteps: c.steps}.Defaults()
	o.Seed, o.EvalEvery = c.seed, c.evalInt // Defaults reads 0 as 42 and 8; a single run keeps 0
	ew, err := experiments.NewWorld(o, "cifar", c.degree)
	if err != nil {
		return nil, err
	}
	w := &world{World: ew}
	if w.trace, err = c.buildTrace(c.nodes, c.seed, ew.MeanTrainWh); err != nil {
		return nil, err
	}
	w.fleet = harvest.Options{
		CapacityRounds: c.capacity,
		InitialSoC:     c.initSoC,
		// Options treats InitialSoC 0 as "unset"; the flag's 0 means empty.
		StartEmpty: c.initSoC == 0,
		CutoffSoC:  c.cutoff,
		IdleWh:     c.idle * ew.MeanTrainWh,
	}
	spec := policies[c.policy] // the flag table refuses unknown names
	if w.policy, err = spec.build(c); err != nil {
		return nil, err
	}
	w.policyName = w.policy.Name()
	// The mpc policies plan over a forecast of the run's own trace: exact
	// (oracle), corrupted (-fnoise), or learned (persistence). The window
	// defaults to one simulated day.
	if spec.mpc {
		w.fhorizon = c.fhorizon
		if w.fhorizon == 0 {
			w.fhorizon = c.period
		}
		switch {
		case c.policy == "mpc-persist":
			w.forecaster, err = harvest.NewPersistence(c.nodes, c.period)
		case c.fnoise > 0:
			w.forecaster, err = harvest.NewNoisyOracle(w.trace, c.fnoise, c.seed)
		default:
			w.forecaster, err = harvest.NewOracle(w.trace)
		}
		if err != nil {
			return nil, err
		}
		w.policyName += fmt.Sprintf(" [%s, window %d]", w.forecaster.Name(), w.fhorizon)
	}
	w.schedule, err = core.ScheduleFromGammaFlags(c.gt, c.gs)
	return w, err
}

// runRound runs one simulation on the round engine.
func (c *config) runRound(stdout io.Writer, probe *obs.Probe) error {
	w, err := c.buildWorld()
	if err != nil {
		return err
	}
	cfg, err := w.Config(core.Algorithm{Label: "harvest-" + w.policy.Name(), Schedule: w.schedule, Policy: w.policy})
	if err != nil {
		return err
	}
	if cfg.Harvest, err = harvest.NewFleet(cfg.Devices, cfg.Workload, w.trace, w.fleet); err != nil {
		return err
	}
	// A rejoin rule only makes sense when dead nodes freeze, i.e. under
	// -dropdead, and the flag table has checked its name.
	if c.rejoin != "" {
		if cfg.Rejoin, err = sim.RuleByName(c.rejoin); err != nil {
			return err
		}
	}
	cfg.Forecast, cfg.ForecastHorizon = w.forecaster, w.fhorizon
	cfg.DropDeadNodes, cfg.Probe = c.dropDead, probe
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	fleet, rule := cfg.Harvest, cfg.Rejoin

	commModel := "route-through-dead"
	if c.dropDead {
		commModel = "drop-and-renormalize"
	}
	rejoinModel := "off"
	if rule != nil {
		rejoinModel = rule.Name()
	}
	fmt.Fprintf(stdout, "harvest fleet: %d nodes, %d-regular, %d rounds | trace %s | policy %s | capacity %g rounds | dead nodes: %s | rejoin: %s\n",
		c.nodes, c.degree, c.rounds, fleet.TraceName(), w.policyName, c.capacity, commModel, rejoinModel)

	// The wave: per-round participation, fleet charge, and liveness over
	// time.
	var participation, meanSoC, liveCount []float64
	for _, m := range res.History {
		participation = append(participation, float64(m.TrainedCount))
		meanSoC = append(meanSoC, m.MeanSoC)
		liveCount = append(liveCount, float64(m.LiveCount))
	}
	fmt.Fprintf(stdout, "participation/round: %s\n", report.Sparkline(participation))
	fmt.Fprintf(stdout, "fleet mean SoC:      %s\n", report.Sparkline(meanSoC))
	fmt.Fprintf(stdout, "live nodes/round:    %s\n", report.Sparkline(liveCount))

	ev := report.NewTable("evaluations",
		"round", "mean acc %", "std %", "mean SoC", "min SoC", "depleted", "live", "eff deg", "components", "cum harvest Wh")
	for _, m := range res.Evaluations() {
		ev.AddRowf("%d|%.2f|%.2f|%.3f|%.3f|%d|%d|%.2f|%d|%.4f",
			m.Round+1, m.MeanAcc*100, m.StdAcc*100, m.MeanSoC, m.MinSoC, m.Depleted,
			m.LiveCount, m.MeanLiveDegree, m.LiveComponents, m.CumHarvestWh)
	}
	ev.Render(stdout)

	trainSlots := core.CountTrainRounds(w.schedule, c.rounds)
	tb := report.NewTable("per-node state of charge and participation",
		"node", "device", "phase", "trained", "particip %", "final SoC %", "harvested mWh", "consumed mWh")
	// Longitude phase only exists for the diurnal trace; other sources have
	// no per-node offset.
	phaseCell := func(int) string { return "-" }
	if c.trace == "diurnal" {
		phase := harvest.LongitudePhase(c.nodes)
		phaseCell = func(i int) string { return fmt.Sprintf("%.3f", phase(i)) }
	}
	for i := 0; i < c.nodes; i++ {
		tb.AddRowf("%d|%s|%s|%d|%.1f|%.1f|%.3f|%.3f",
			i, cfg.Devices[i].Name, phaseCell(i), res.TrainedRounds[i],
			100*float64(res.TrainedRounds[i])/float64(trainSlots),
			100*res.FinalSoC[i], 1000*fleet.NodeHarvestedWh(i), 1000*fleet.NodeConsumedWh(i))
	}
	tb.Render(stdout)

	trained := 0
	for _, tr := range res.TrainedRounds {
		trained += tr
	}
	fmt.Fprintf(stdout, "\nfinal: %.2f%% | avg model %s | participation %.1f%% | harvested %.4f Wh, consumed %.4f Wh, wasted %.4f Wh",
		experiments.Readout(res, w.schedule), experiments.ModelColumnOf(res),
		100*float64(trained)/float64(c.nodes*trainSlots),
		res.TotalHarvestWh, fleet.ConsumedWh(), fleet.WastedWh())
	if c.dropDead {
		fmt.Fprintf(stdout, " | dropped msgs %d", res.TotalDroppedSends)
	}
	if rule != nil {
		fmt.Fprintf(stdout, " | revivals %d, restores %d, mean staleness %.1f",
			res.TotalRevivals, res.TotalRestores, res.MeanRejoinStaleness())
	}
	fmt.Fprintln(stdout)
	return nil
}

// runAsync runs the event-driven intermittency engine (-async) on the same
// world as the round engine, but batteries evolve on a continuous virtual
// clock — nodes sleep until their solved charge-arrival crossing, and
// brown-outs interrupt in-flight training steps at the exact cutoff
// crossing. One trace round spans the fleet-mean training-step duration,
// so -rounds covers the same stretch of the ambient process as the round
// engine.
func (c *config) runAsync(stdout io.Writer, probe *obs.Probe) error {
	w, err := c.buildWorld()
	if err != nil {
		return err
	}
	cfg, err := w.AsyncConfig(core.Algorithm{Label: "async-harvest-" + w.policy.Name(), Schedule: w.schedule, Policy: w.policy}, w.trace, w.fleet)
	if err != nil {
		return err
	}
	cfg.Forecast, cfg.ForecastHorizon, cfg.Probe = w.forecaster, w.fhorizon, probe
	res, err := async.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "event-driven harvest fleet: %d nodes, %d-regular, horizon %.0fs (%d trace rounds of %.2fs) | trace %s | policy %s | capacity %g rounds\n",
		c.nodes, c.degree, cfg.Horizon, c.rounds, cfg.RoundSeconds, w.trace.Name(), w.policyName, c.capacity)

	var curve []float64
	tb := report.NewTable("evaluations",
		"virtual time s", "mean acc %", "std %", "steps", "train Wh")
	for _, s := range res.History {
		curve = append(curve, s.MeanAcc)
		tb.AddRowf("%.0f|%.2f|%.2f|%d|%.4f",
			s.Time, s.MeanAcc*100, s.StdAcc*100, s.StepsTotal, s.TrainWh)
	}
	tb.Render(stdout)
	fmt.Fprintf(stdout, "accuracy trend: %s\n", report.Sparkline(curve))

	steps, trained := 0, 0
	for i := range res.StepsPerNode {
		steps += res.StepsPerNode[i]
		trained += res.TrainedSteps[i]
	}
	fmt.Fprintf(stdout, "final: %.2f%% | avg model %s | %d steps (%d trained), %d gossips (%d dropped) | %d brown-outs, %.1f%% node-time down | harvested %.4f Wh, consumed %.4f Wh, wasted %.4f Wh\n",
		experiments.Readout(res, w.schedule), experiments.ModelColumnOf(res), steps, trained,
		res.GossipsSent, res.DroppedGossips,
		res.Brownouts, 100*res.BrownoutShare,
		res.HarvestedWh, res.ConsumedWh, res.WastedWh)
	return nil
}

// runGrid runs the harvest-aware Γ-schedule search (-grid): the 4x4
// Γtrain x Γsync grid under the regime selected by -trace, every cell a
// full harvest-coupled simulation on a fresh fleet, cells fanned out
// across workers. The -peak, -period, and -seed flags parameterize the
// regime; topology, data, and fleet shape use the experiment package's
// standard grid world, so results line up with experiments.TableGammaHarvest.
func (c *config) runGrid(stdout io.Writer, probe *obs.Probe) error {
	name := c.trace
	switch {
	case c.trace == "csv":
		name = "replay"
	case c.trace == "constant" && c.peak == 0:
		name = "fixed-budget" // the paper's Figure 3 setting
	}
	res, err := experiments.RunGammaGrid(experiments.Options{
		Nodes: c.nodes, Rounds: c.rounds, Seed: c.seed,
		LR: c.lr, BatchSize: c.batch, LocalSteps: c.steps,
		Probe: probe,
	}, experiments.GammaRegime{Name: name, Trace: func(o experiments.Options, meanTrainWh float64) (harvest.Trace, error) {
		return c.buildTrace(o.Nodes, o.Seed, meanTrainWh)
	}})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Γ-schedule grid search: %d nodes, %d rounds | regime %s | trace %s\n\n",
		c.nodes, c.rounds, res.Regime, res.Trace)
	res.Render(stdout)
	return nil
}
