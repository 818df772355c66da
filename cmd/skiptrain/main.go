// Command skiptrain runs one decentralized-learning run from flags, such
// as skiptrain -algo constrained -dataset femnist -nodes 48: any of the
// paper's five algorithms on either dataset stand-in, with the topology,
// schedule, and scale under CLI control. A single run is built by
// experiments' world, as every table's run is, and its final line prints
// what a table row reports for it: the readout and the averaged model's
// column. A whole paper table or figure is gridsearch -job.
//
// -trace puts the run on an intermittently-powered fleet (internal/harvest):
// per-node batteries charge from an ambient harvest trace, and a
// charge-aware -policy replaces the participation of -algo dpsgd or
// skiptrain, whose all-train or Γ schedule stays. Without -trace the run is
// the paper's static setting; its constrained case is the zero-harvest one.
// skiptrain -h lists the traces, policies and rejoin rules, and a scenario
// command line for each; traces and policies are one registry each, which
// the flag table, the help and the world builder read.
//
// With -dropdead, a node whose battery sits at or below the -cutoff
// state of charge is browned out for the round: it neither trains nor
// communicates, every edge incident to it is dropped, and the mixing
// matrix is re-normalized over the live subgraph (see docs/ARCHITECTURE.md).
// Without it the engine routes sync traffic through depleted nodes — the
// optimistic baseline. With -rejoin, a node that recharges past the cutoff
// resumes with what the chosen rejoin rule (internal/sim, listed by -h)
// makes of its frozen model.
//
// With -async, the round engine is replaced by the event-driven one
// (internal/async), built by experiments' World.AsyncConfig as the tables'
// async runs are. On a fleet, batteries evolve on a continuous virtual
// clock, a node that cannot pay for training gossips and one that cannot
// pay for a gossip sleeps until its solved charge-arrival crossing, and a
// brown-out interrupts an in-flight training step at the exact cutoff
// crossing — the computation is discarded but its partial energy stays
// spent. One trace round spans the fleet-mean step duration, so -rounds,
// -peak, and -period describe the same ambient process as the round engine.
//
// With -telemetry, any run streams structured telemetry (internal/obs): a
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
// A flag set where it has no effect — Γ on an algorithm without a Γ
// schedule, a fleet flag without -trace, a round-engine flag with -async, a
// policy knob under another policy — or to a value it does not take is a
// usage error (exit status 2); config.rules is the table. Runs are
// deterministic: the same seed and flags reproduce the same output bit for
// bit.
package main

import (
	"cmp"
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
	"strings"

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

// run executes one skiptrain invocation and returns its exit status.
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
	algo, dataset                     string
	nodes, degree, rounds, gt, gs     int
	lr                                float64
	batch, steps, evalInt             int
	seed                              uint64
	trace, traceFile, policy, rejoin  string
	period, fhorizon                  int
	peak, fnoise, capacity, initSoC   float64
	minSoC, lowSoC, highSoC, exponent float64
	cutoff, idle                      float64
	dropDead, async, telemetry, audit bool
	events, pprofAddr                 string
}

// algorithms are -algo's values.
var algorithms = []string{"dpsgd", "skiptrain", "constrained", "greedy", "allreduce"}

func (c *config) flagSet(stderr io.Writer) *flag.FlagSet {
	fs := cli.NewFlagSet("skiptrain", stderr)
	fs.Usage = func() { usage(fs) }
	fs.StringVar(&c.algo, "algo", "skiptrain", strings.Join(algorithms, " | "))
	fs.StringVar(&c.dataset, "dataset", "cifar", "cifar | femnist")
	fs.IntVar(&c.nodes, "nodes", 48, "number of nodes (paper: 256)")
	fs.IntVar(&c.degree, "degree", 6, "topology degree (paper: 6, 8, 10)")
	fs.IntVar(&c.rounds, "rounds", 64, "total rounds T")
	fs.IntVar(&c.gt, "gt", 0, "Γtrain (0 = tuned value for the degree)")
	fs.IntVar(&c.gs, "gs", -1, "Γsync (-1 = tuned value for the degree)")
	fs.Float64Var(&c.lr, "lr", 0.2, "learning rate η")
	fs.IntVar(&c.batch, "batch", 16, "batch size |ξ|")
	fs.IntVar(&c.steps, "steps", 8, "local steps E")
	fs.Uint64Var(&c.seed, "seed", 42, "experiment seed")
	fs.IntVar(&c.evalInt, "eval", 8, "evaluate every N rounds (and always each round of the last Γ period)")
	fs.StringVar(&c.trace, "trace", "", strings.Join(slices.Sorted(maps.Keys(traces)), " | ")+" (empty = the paper's static setting)")
	fs.StringVar(&c.traceFile, "tracefile", "", "replay CSV for -trace csv (round,node,harvest_wh)")
	fs.IntVar(&c.period, "period", 24, "rounds per simulated day (diurnal trace)")
	fs.Float64Var(&c.peak, "peak", 1.5, "trace magnitude as a multiple of the mean per-round training cost")
	fs.StringVar(&c.policy, "policy", "proportional", strings.Join(slices.Sorted(maps.Keys(policies)), " | "))
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
	fs.BoolVar(&c.async, "async", false, "run the event-driven engine (internal/async): a continuous virtual clock, and on a fleet solved wake/brown-out crossings instead of round-boundary settlement")
	fs.BoolVar(&c.telemetry, "telemetry", false, "stream telemetry: a live progress line on stderr (internal/obs; see -events)")
	fs.StringVar(&c.events, "events", "", "with -telemetry: write the JSONL event stream to this file")
	fs.BoolVar(&c.audit, "audit", false, "attach the streaming invariant auditor (internal/obs/analyze): check energy conservation, brownout alternation, counters, and phase times live; violations fail the run")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve pprof and expvar on this address (e.g. localhost:6060) for the run's duration")
	return fs
}

// rules is the flag table: each flag that does not apply to every run,
// with the condition under which it does, and the values the scale,
// learning, schedule, battery, trace, policy and rejoin flags take, so a
// value no run takes is refused before the world is built. A fleet runs
// an all-train or Γ schedule under its battery policy, and -async has no
// per-round dropout or rejoin rule.
func (c *config) rules() []cli.Rule {
	fleet := func() bool { return c.trace != "" }
	policy := func(name string) bool { return fleet() && c.policy == name }
	plans := func() bool { return fleet() && policies[c.policy].forecast != nil }
	finiteNonNeg := func(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }
	return append(cli.Scale(&c.nodes, &c.rounds, func() []int { return []int{c.degree} }), []cli.Rule{
		{Flags: "algo", Want: "one of " + strings.Join(algorithms, " | "), OK: func() bool { return slices.Contains(algorithms, c.algo) }},
		{Flags: "dataset", Want: "cifar or femnist", OK: func() bool { return c.dataset == "cifar" || c.dataset == "femnist" }},
		{Flags: "degree", Want: "a regular topology of degree d (" + cli.Topology + ")", OK: func() bool { return graph.CheckRegular(c.nodes, c.degree) == nil }},
		{Flags: "batch", Want: "a value ≥ 1", OK: func() bool { return c.batch >= 1 }},
		{Flags: "steps", Want: "a value ≥ 1", OK: func() bool { return c.steps >= 1 }},
		{Flags: "lr", Want: "a finite value > 0", OK: func() bool { return c.lr > 0 && c.lr <= math.MaxFloat64 }},
		{Flags: "eval", Want: "a value ≥ 0", OK: func() bool { return c.evalInt >= 0 }},
		{Flags: "gt gs", Want: "-algo skiptrain or constrained, Γtrain ≥ 1, Γsync ≥ 0 and Γtrain+Γsync ≤ MaxInt", OK: func() bool {
			_, err := c.gamma()
			return (c.algo == "skiptrain" || c.algo == "constrained") && err == nil
		}},
		{Flags: "async", Want: "-algo dpsgd or skiptrain, and no -policy mpc-persist, which learns from per-round observations the event-driven engine does not make",
			OK: func() bool { return (c.algo == "dpsgd" || c.algo == "skiptrain") && !policy("mpc-persist") }},
		{Flags: "trace", Want: "-algo dpsgd or skiptrain, a trace -h lists, and csv with -tracefile", OK: func() bool {
			return (c.algo == "dpsgd" || c.algo == "skiptrain") && traces[c.trace].build != nil && (c.trace != "csv" || c.traceFile != "")
		}},
		{Flags: "tracefile", Want: "-trace csv", OK: func() bool { return c.trace == "csv" }},
		{Flags: "peak", Want: "-trace other than csv and a finite value, > 0 (≥ 0 with -trace constant)", OK: func() bool {
			return fleet() && c.trace != "csv" && finiteNonNeg(c.peak) && (c.peak > 0 || c.trace == "constant")
		}},
		{Flags: "period", Want: "-trace diurnal or an mpc policy, and a value ≥ 2", OK: func() bool { return (c.trace == "diurnal" || plans()) && c.period >= 2 }},
		{Flags: "policy", Want: "-trace and a policy -h lists", OK: func() bool { return fleet() && policies[c.policy].build != nil }},
		{Flags: "capacity", Want: "-trace and a finite value ≥ 0", OK: func() bool { return fleet() && finiteNonNeg(c.capacity) }},
		{Flags: "initsoc", Want: "-trace and a value in [0, 1]", OK: func() bool { return fleet() && c.initSoC >= 0 && c.initSoC <= 1 }},
		{Flags: "cutoff", Want: "-trace and a value in [0, 1)", OK: func() bool { return fleet() && c.cutoff >= 0 && c.cutoff < 1 }},
		{Flags: "idle", Want: "-trace and a finite value ≥ 0", OK: func() bool { return fleet() && finiteNonNeg(c.idle) }},
		{Flags: "dropdead", Want: "-trace on the round engine (no -async)", OK: func() bool { return fleet() && !c.async }},
		{Flags: "rejoin", Want: "-dropdead on the round engine and stale, restore, or catchup", OK: func() bool {
			_, err := sim.RuleByName(c.rejoin)
			return !c.async && c.dropDead && err == nil
		}},
		{Flags: "minsoc", Want: "-policy threshold and a value in [0, 1]", OK: func() bool { return policy("threshold") && c.minSoC >= 0 && c.minSoC <= 1 }},
		{Flags: "low high", Want: "-policy hysteresis and 0 ≤ -low < -high ≤ 1", OK: func() bool {
			return policy("hysteresis") && c.lowSoC >= 0 && c.lowSoC < c.highSoC && c.highSoC <= 1
		}},
		{Flags: "exponent", Want: "-policy proportional and a finite value > 0", OK: func() bool { return policy("proportional") && c.exponent > 0 && finiteNonNeg(c.exponent) }},
		{Flags: "fhorizon", Want: "an mpc policy and a value ≥ 0", OK: func() bool { return plans() && c.fhorizon >= 0 }},
		{Flags: "fnoise", Want: "-policy mpc (mpc-persist forecasts from observations) and a finite value ≥ 0",
			OK: func() bool { return policy("mpc") && finiteNonNeg(c.fnoise) }},
		{Flags: "events", Want: "-telemetry", OK: func() bool { return c.telemetry }},
	}...)
}

// gamma is the Γ schedule of -algo skiptrain and constrained: -gt and -gs,
// each the value tuned for the degree when unset.
func (c *config) gamma() (core.Gamma, error) {
	g := experiments.GammaForDegree(c.degree)
	if c.gs != -1 {
		g.GammaSync = c.gs
	}
	return core.NewGamma(cmp.Or(c.gt, g.GammaTrain), g.GammaSync)
}

// traceSpec is one -trace registry entry: its usage text and its builder,
// which reads -peak in units of meanTrainWh, the fleet's mean per-round
// training cost.
type traceSpec struct {
	summary string
	build   func(c *config, meanTrainWh float64) (harvest.Trace, error)
}

// traces is the -trace registry.
var traces = map[string]traceSpec{
	"diurnal": {summary: `solar sinusoid; each node's phase is its longitude, so the
                sun sweeps the fleet and nodes train in waves (-peak, -period)`,
		build: func(c *config, wh float64) (harvest.Trace, error) {
			return harvest.NewDiurnal(c.peak*wh, c.period, harvest.LongitudePhase(c.nodes))
		}},
	"constant": {summary: `steady trickle of -peak x mean training cost per round;
                -peak 0 is the paper's no-recharge setting`,
		build: func(c *config, wh float64) (harvest.Trace, error) { return harvest.Constant{Wh: c.peak * wh}, nil }},
	"markov": {summary: `two-state on/off chain per node: bursty ambient sources (RF,
                wind); on-state harvest is -peak x mean training cost`,
		build: func(c *config, wh float64) (harvest.Trace, error) {
			return harvest.NewMarkovOnOff(c.nodes, c.peak*wh, 0.25, 0.35, c.seed)
		}},
	"csv": {summary: `replay a recorded per-node trace from -tracefile
                (CSV rows: round,node,harvest_wh)`,
		build: (*config).readReplay},
}

// mpcReserveSoC is the HorizonPlan safety margin: the planned trajectory
// keeps this much capacity above the brown-out cutoff.
const mpcReserveSoC = 0.05

// policySpec is one -policy registry entry: its usage text, its builder,
// and, for a policy that plans over a forecast of the run's trace, the
// forecaster's.
type policySpec struct {
	summary  string
	build    func(c *config) (core.Policy, error)
	forecast func(c *config, trace harvest.Trace) (harvest.Forecaster, error)
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
	"mpc": {summary: `forecast-aware MPC: plan a greedy training knapsack over an
                oracle forecast of the trace (-fhorizon rounds, default one
                -period day; -fnoise corrupts the oracle), execute the first
                decision, replan next round`,
		build: func(*config) (core.Policy, error) { return harvest.NewHorizonPlan(mpcReserveSoC) },
		forecast: func(c *config, tr harvest.Trace) (harvest.Forecaster, error) {
			if c.fnoise > 0 {
				return harvest.NewNoisyOracle(tr, c.fnoise, c.seed)
			}
			return harvest.NewOracle(tr)
		}},
	"mpc-persist": {summary: `the same planner over a learned forecast: tomorrow looks
                like today (per-node persistence of observed arrivals)`,
		build: func(*config) (core.Policy, error) { return harvest.NewHorizonPlan(mpcReserveSoC) },
		forecast: func(c *config, _ harvest.Trace) (harvest.Forecaster, error) {
			return harvest.NewPersistence(c.nodes, c.period)
		}},
}

// usage prints the flag defaults plus the scenario list: which algorithm,
// trace and policy combinations exist and what they model.
func usage(fs *flag.FlagSet) {
	out := fs.Output()
	fmt.Fprint(out, `skiptrain runs one of the paper's algorithms on a dataset stand-in, on the
round engine or (-async) the event-driven one, in the paper's static setting
or (-trace) on a fleet of batteries charged by an ambient harvest trace and
run by a charge-aware participation policy.

Usage:

  skiptrain [flags]

Traces (-trace, with -algo dpsgd or skiptrain):
`)
	for _, name := range slices.Sorted(maps.Keys(traces)) {
		fmt.Fprintf(out, "  %-13s %s\n", name, traces[name].summary)
	}
	fmt.Fprint(out, "\nPolicies (-policy, with -trace):\n")
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

  skiptrain -algo constrained -dataset femnist   # the paper's energy budgets
  skiptrain -algo dpsgd -trace diurnal           # solar fleet training in waves
  skiptrain -algo dpsgd -trace markov -policy hysteresis   # bursty RF power
  skiptrain -trace constant -peak 0              # SkipTrain without recharge
  skiptrain -algo dpsgd -trace csv -tracefile solar.csv    # a recorded trace
  skiptrain -algo dpsgd -trace diurnal -cutoff 0.3 -idle 0.25 -dropdead -rejoin catchup
  skiptrain -algo dpsgd -trace diurnal -policy mpc -fnoise 0.3
  skiptrain -algo dpsgd -trace diurnal -async -cutoff 0.25 -idle 0.2 -audit
  skiptrain -telemetry -events run.jsonl -pprof localhost:6060

The Γ-schedule search under each harvest regime is gridsearch -job gamma.

Flags:

`)
	fs.PrintDefaults()
}

// run serves pprof, builds the world, assembles the telemetry sink chain,
// and runs the selected engine on the world.
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
	w, err := c.buildWorld()
	if err != nil {
		return err
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
	sink := obs.Multi(sinks...)
	probe := obs.NewProbe(sink)

	if c.async {
		err = c.runAsync(stdout, w, probe)
	} else {
		err = c.runRound(stdout, w, probe)
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

// readReplay is the csv trace's builder: it reads -tracefile, whose rows
// are in watt-hours already.
func (c *config) readReplay(float64) (harvest.Trace, error) {
	fh, err := os.Open(c.traceFile)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	replay, err := harvest.ReadReplay(fh)
	if err == nil && replay.Nodes() < c.nodes {
		err = fmt.Errorf("replay covers %d nodes, fleet has %d", replay.Nodes(), c.nodes)
	}
	return replay, err
}

// world is what a single run trains on, on either engine: experiments'
// world, the one every table's run is built by, the algorithm, and, with
// -trace, the fleet the flags add to it.
type world struct {
	*experiments.World
	algo       core.Algorithm
	trace      harvest.Trace // nil in the paper's static setting
	fleet      harvest.Options
	policyName string             // the policy and, when it plans, its forecast
	forecaster harvest.Forecaster // nil unless an mpc policy plans
	fhorizon   int
}

func (c *config) buildWorld() (*world, error) {
	o := experiments.Options{Nodes: c.nodes, Rounds: c.rounds, LR: c.lr, BatchSize: c.batch, LocalSteps: c.steps}.Defaults()
	o.Seed, o.EvalEvery = c.seed, c.evalInt // Defaults reads 0 as 42 and 8; a single run keeps 0
	ew, err := experiments.NewWorld(o, c.dataset, c.degree)
	if err != nil {
		return nil, err
	}
	w := &world{World: ew}
	gamma, err := c.gamma()
	if err != nil {
		return nil, err
	}
	switch c.algo {
	case "dpsgd":
		w.algo = core.DPSGD()
	case "skiptrain":
		w.algo = core.SkipTrain(gamma)
	case "constrained":
		w.algo = core.SkipTrainConstrained(gamma, c.rounds, w.Budgets())
	case "greedy":
		w.algo = core.Greedy(w.Budgets())
	case "allreduce":
		w.algo = core.AllReduce()
	}
	if c.trace == "" {
		return w, nil
	}
	if w.trace, err = traces[c.trace].build(c, ew.MeanTrainWh); err != nil {
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
	policy, err := spec.build(c)
	if err != nil {
		return nil, err
	}
	w.algo = core.Algorithm{Label: "harvest-" + policy.Name(), Schedule: w.algo.Schedule, Policy: policy}
	w.policyName = policy.Name()
	// A planning policy plans over a forecast of the run's own trace, in a
	// window that defaults to one simulated day.
	if spec.forecast != nil {
		if w.forecaster, err = spec.forecast(c, w.trace); err != nil {
			return nil, err
		}
		w.fhorizon = cmp.Or(c.fhorizon, c.period)
		w.policyName += fmt.Sprintf(" [%s, window %d]", w.forecaster.Name(), w.fhorizon)
	}
	return w, nil
}

// runRound runs the algorithm on the round engine, on the -trace fleet
// when there is one.
func (c *config) runRound(stdout io.Writer, w *world, probe *obs.Probe) error {
	cfg, err := w.Config(w.algo)
	if err != nil {
		return err
	}
	if w.trace != nil {
		cfg.Harvest, err = harvest.NewFleet(cfg.Devices, cfg.Workload, w.trace, w.fleet)
	}
	// A rejoin rule only makes sense when dead nodes freeze, i.e. under
	// -dropdead, and the flag table has checked its name.
	if err == nil && c.rejoin != "" {
		cfg.Rejoin, err = sim.RuleByName(c.rejoin)
	}
	if err != nil {
		return err
	}
	cfg.Forecast, cfg.ForecastHorizon = w.forecaster, w.fhorizon
	cfg.DropDeadNodes, cfg.Probe = c.dropDead, probe
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	if w.trace == nil {
		fmt.Fprintf(stdout, "%s on %s-like data: %d nodes, %d-regular, %d rounds\n",
			w.algo.Label, c.dataset, c.nodes, c.degree, c.rounds)
		tb := report.NewTable("", "round", "kind", "trained", "mean acc %", "std %", "cum train Wh", "cum comm Wh")
		var curve experiments.Series
		for _, m := range res.Evaluations() {
			tb.AddRowf("%d|%s|%d|%.2f|%.2f|%.4f|%.5f",
				m.Round+1, m.Kind, m.TrainedCount, m.MeanAcc*100, m.StdAcc*100, m.CumTrainWh, m.CumCommWh)
			curve.X, curve.Y = append(curve.X, float64(m.Round+1)), append(curve.Y, m.MeanAcc)
		}
		tb.Render(stdout)
		cadence := experiments.OnCadence(experiments.Options{Rounds: c.rounds, EvalEvery: c.evalInt}, curve)
		fmt.Fprintf(stdout, "accuracy trend: %s\n", report.Sparkline(cadence))
		fmt.Fprintf(stdout, "final: %.2f%% | avg model %s | train %.4f Wh, comm %.5f Wh (sim scale)\n",
			experiments.Readout(res, w.algo.Schedule), experiments.ModelColumnOf(res), res.TotalTrainWh, res.TotalCommWh)
		return nil
	}
	fleet, rule := cfg.Harvest, cfg.Rejoin

	commModel, rejoinModel := "route-through-dead", "off"
	if c.dropDead {
		commModel = "drop-and-renormalize"
	}
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

	trainSlots := core.CountTrainRounds(w.algo.Schedule, c.rounds)
	tb := report.NewTable("per-node state of charge and participation",
		"node", "device", "phase", "trained", "particip %", "final SoC %", "harvested mWh", "consumed mWh")
	// Longitude phase only exists for the diurnal trace; other sources have
	// no per-node offset.
	phaseCell := func(int) string { return "-" }
	if c.trace == "diurnal" {
		phase := harvest.LongitudePhase(c.nodes)
		phaseCell = func(i int) string { return fmt.Sprintf("%.3f", phase(i)) }
	}
	trained := 0
	for i := 0; i < c.nodes; i++ {
		trained += res.TrainedRounds[i]
		tb.AddRowf("%d|%s|%s|%d|%.1f|%.1f|%.3f|%.3f",
			i, cfg.Devices[i].Name, phaseCell(i), res.TrainedRounds[i],
			100*float64(res.TrainedRounds[i])/float64(trainSlots),
			100*res.FinalSoC[i], 1000*fleet.NodeHarvestedWh(i), 1000*fleet.NodeConsumedWh(i))
	}
	tb.Render(stdout)

	fmt.Fprintf(stdout, "\nfinal: %.2f%% | avg model %s | participation %.1f%% | harvested %.4f Wh, consumed %.4f Wh, wasted %.4f Wh",
		experiments.Readout(res, w.algo.Schedule), experiments.ModelColumnOf(res),
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

// runAsync runs the algorithm on the event-driven engine (-async, the
// paper's Section 5.3 future-work extension), on the world's fleet when
// -trace set one: nodes sleep until their solved charge-arrival crossing,
// and brown-outs interrupt in-flight training steps at the exact cutoff
// crossing.
func (c *config) runAsync(stdout io.Writer, w *world, probe *obs.Probe) error {
	algo := w.algo
	if w.trace != nil {
		algo.Label = "async-" + algo.Label
	}
	cfg, err := w.AsyncConfig(algo, w.trace, w.fleet)
	if err != nil {
		return err
	}
	cfg.Forecast, cfg.ForecastHorizon, cfg.Probe = w.forecaster, w.fhorizon, probe
	res, err := async.Run(cfg)
	if err != nil {
		return err
	}

	if w.trace == nil {
		fmt.Fprintf(stdout, "asynchronous %s on %s-like data: %d nodes, %d-regular, horizon %.0fs (%d rounds of %.2fs)\n",
			algo.Label, c.dataset, c.nodes, c.degree, cfg.Horizon, c.rounds, cfg.RoundSeconds)
	} else {
		fmt.Fprintf(stdout, "event-driven harvest fleet: %d nodes, %d-regular, horizon %.0fs (%d trace rounds of %.2fs) | trace %s | policy %s | capacity %g rounds\n",
			c.nodes, c.degree, cfg.Horizon, c.rounds, cfg.RoundSeconds, w.trace.Name(), w.policyName, c.capacity)
	}

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
	fmt.Fprintf(stdout, "final: %.2f%% | avg model %s | %d steps (%d trained), %d gossips (%d dropped)",
		experiments.Readout(res, algo.Schedule), experiments.ModelColumnOf(res), steps, trained,
		res.GossipsSent, res.DroppedGossips)
	if w.trace == nil {
		fmt.Fprintf(stdout, " | train %.4f Wh\n", res.TotalTrainWh)
	} else {
		fmt.Fprintf(stdout, " | %d brown-outs, %.1f%% node-time down | harvested %.4f Wh, consumed %.4f Wh, wasted %.4f Wh\n",
			res.Brownouts, 100*res.BrownoutShare, res.HarvestedWh, res.ConsumedWh, res.WastedWh)
	}
	return nil
}
