// Command harvestsim runs a decentralized-learning experiment on an
// intermittently-powered fleet: per-node batteries, an ambient harvest
// trace, and a charge-aware participation policy (internal/harvest).
//
// The default configuration is a 96-node diurnal fleet spread over all
// longitudes — the sun sweeps around the globe and nodes train in waves —
// but every piece is under flag control:
//
//	harvestsim                                   # 96-node solar fleet
//	harvestsim -trace markov -policy hysteresis  # bursty RF-powered fleet
//	harvestsim -trace constant -peak 0           # no recharge (paper setting)
//	harvestsim -trace csv -tracefile solar.csv   # replay a recorded trace
//	harvestsim -policy mpc -fhorizon 24          # forecast-aware MPC planner
//	harvestsim -dropdead -cutoff 0.25 -idle 0.2  # brown-outs silence radios
//	harvestsim -dropdead -cutoff 0.3 -idle 0.25 -rejoin catchup
//	                                             # checkpoint/restore on rejoin
//	harvestsim -grid -trace diurnal              # Γ-schedule search per regime
//	harvestsim -telemetry -events run.jsonl      # live progress + JSONL events
//	harvestsim -audit                            # live invariant auditor
//	harvestsim -telemetry -pprof localhost:6060  # ... with pprof/expvar served
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
// (internal/async): batteries evolve on a continuous virtual clock, an
// unaffordable node sleeps until its solved charge-arrival crossing, and a
// brown-out interrupts an in-flight training step at the exact cutoff
// crossing — the computation is discarded but its partial energy stays
// spent. One trace round spans the fleet-mean step duration, so -rounds,
// -peak, and -period describe the same ambient process as the round
// engine. Flags tied to round-engine machinery (-dropdead, -rejoin,
// -ckptdir, -grid) conflict with -async.
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
// With -rejoin, the checkpoint subsystem (internal/checkpoint) snapshots a
// dying node's post-aggregation model and applies the chosen rejoin rule
// when it recharges: stale (resume frozen parameters, the baseline),
// restore (freshest aggregated state in the live neighborhood), or catchup
// (staleness-discounted blend). -ckptdir persists snapshots to disk;
// without it they live in memory.
//
// Runs are deterministic: the same seed and flags reproduce the same
// output bit-for-bit.
package main

import (
	_ "expvar" // registers /debug/vars on the -pprof server
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof server
	"os"
	"sort"
	"strings"

	"repro/internal/async"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sim"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 96, "fleet size")
		degree   = flag.Int("degree", 6, "topology degree")
		rounds   = flag.Int("rounds", 96, "total rounds T")
		period   = flag.Int("period", 24, "rounds per simulated day (diurnal trace)")
		peak     = flag.Float64("peak", 1.5, "trace magnitude as a multiple of the mean per-round training cost")
		traceKin = flag.String("trace", "diurnal", "diurnal | constant | markov | csv")
		traceCSV = flag.String("tracefile", "", "replay CSV for -trace csv (round,node,harvest_wh)")
		policyK  = flag.String("policy", "proportional", "proportional | threshold | hysteresis | mpc | mpc-persist")
		fhorizon = flag.Int("fhorizon", 0, "mpc policies: forecast window in rounds (0 = one -period day)")
		fnoise   = flag.Float64("fnoise", 0, "-policy mpc: multiplicative forecast noise sigma (0 = exact oracle)")
		capacity = flag.Float64("capacity", 12, "battery capacity in training-rounds of energy")
		initSoC  = flag.Float64("initsoc", 0.5, "initial state of charge [0,1]; 0 starts batteries empty")
		minSoC   = flag.Float64("minsoc", 0.2, "threshold policy: minimum SoC to train")
		lowSoC   = flag.Float64("low", 0.15, "hysteresis policy: dormancy threshold")
		highSoC  = flag.Float64("high", 0.4, "hysteresis policy: resume threshold")
		exponent = flag.Float64("exponent", 1, "proportional policy: p = SoC^exponent")
		cutoff   = flag.Float64("cutoff", 0, "brown-out cutoff as a fraction of capacity [0,1)")
		idle     = flag.Float64("idle", 0, "always-on idle draw per round, as a multiple of the mean training cost")
		dropDead = flag.Bool("dropdead", false, "silence browned-out nodes: drop their edges and re-normalize the mixing matrix each round")
		rejoin   = flag.String("rejoin", "", "checkpoint/restore on rejoin: stale | restore | catchup (requires -dropdead; empty = off)")
		ckptDir  = flag.String("ckptdir", "", "persist snapshots under this directory (default: in-memory store)")
		grid     = flag.Bool("grid", false, "run the 4x4 Γtrain x Γsync grid search under the -trace regime instead of a single run")
		asyncRun = flag.Bool("async", false, "run the event-driven intermittency engine (internal/async): batteries on a continuous virtual clock, solved wake/brown-out crossings instead of round-boundary settlement")
		gt       = flag.Int("gt", 0, "Γtrain (0 = all-train schedule)")
		gs       = flag.Int("gs", 0, "Γsync (needs -gt > 0: SkipTrain schedule)")
		lr       = flag.Float64("lr", 0.2, "learning rate η")
		batch    = flag.Int("batch", 16, "batch size |ξ|")
		steps    = flag.Int("steps", 8, "local steps E")
		evalInt  = flag.Int("eval", 12, "evaluate every N rounds (and always after the last)")
		seed     = flag.Uint64("seed", 42, "experiment seed")

		telemetry = flag.Bool("telemetry", false, "stream telemetry: a live progress line on stderr (internal/obs; see -events)")
		events    = flag.String("events", "", "with -telemetry: write the JSONL event stream to this file")
		audit     = flag.Bool("audit", false, "attach the streaming invariant auditor (internal/obs/analyze): check energy conservation, brownout alternation, counters, and phase times live; violations fail the run")
		pprofAddr = flag.String("pprof", "", "serve pprof and expvar on this address (e.g. localhost:6060) for the run's duration")
	)
	flag.Usage = usage
	flag.Parse()

	// Validate the Γ flag pair up front: -gs without -gt used to be
	// silently ignored and negative values were accepted. Both are usage
	// errors, reported as such.
	if _, err := core.ScheduleFromGammaFlags(*gt, *gs); err != nil {
		usageError(err.Error())
	}
	// -events without -telemetry would silently record nothing — the same
	// silent-ignore hazard the Γ pair check closes.
	if *events != "" && !*telemetry {
		usageError("-events records the telemetry event stream and needs -telemetry")
	}
	// Bind the pprof listener up front so a bad address is a usage error,
	// not a mid-run surprise. The DefaultServeMux carries the pprof and
	// expvar handlers via their side-effect imports.
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			usageError(fmt.Sprintf("-pprof: cannot listen on %q: %v", *pprofAddr, err))
		}
		fmt.Fprintf(os.Stderr, "pprof/expvar on http://%s/debug/pprof/\n", ln.Addr())
		go http.Serve(ln, nil)
	}

	// The telemetry sink chain: a live progress line on stderr plus the
	// JSONL event stream when -events is set, and the streaming invariant
	// auditor when -audit is set (independently of -telemetry). A nil sink
	// yields a nil (disabled) probe, so the engines pay only nil checks.
	var sinks []obs.Sink
	if *telemetry {
		sinks = append(sinks, obs.NewProgress(os.Stderr))
		if *events != "" {
			fh, err := os.Create(*events)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			sinks = append(sinks, obs.NewJSONL(fh))
		}
	}
	var auditor *analyze.Auditor
	if *audit {
		auditor = analyze.NewAuditor()
		sinks = append(sinks, auditor)
	}
	var sink obs.Sink
	if len(sinks) > 0 {
		sink = obs.Multi(sinks...)
	}
	probe := obs.NewProbe(sink)
	// -grid runs the experiment package's standard grid world (6-regular
	// topology, shared fleet shape and SoC-threshold policy) and searches
	// the schedule itself, so the single-run fleet/policy/schedule flags
	// have no effect there. Explicitly setting one alongside -grid is the
	// same silent-ignore hazard as -gs without -gt: reject it.
	// -async replaces the round engine with the event-driven one. The
	// flags below configure machinery that only exists in the round
	// engine (per-round dropout, checkpoint rejoin), so setting one
	// alongside -async is a usage error, not a silent no-op.
	if *asyncRun {
		if *grid {
			usageError("-grid searches schedules on the round engine; it cannot be combined with -async")
		}
		roundOnly := map[string]bool{"dropdead": true, "rejoin": true, "ckptdir": true}
		var ignored []string
		flag.Visit(func(f *flag.Flag) {
			if roundOnly[f.Name] {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			usageError(fmt.Sprintf("-async runs the event-driven engine and ignores %s",
				strings.Join(ignored, ", ")))
		}
	}
	if *grid {
		single := map[string]bool{
			"degree": true, "policy": true, "capacity": true, "initsoc": true,
			"minsoc": true, "low": true, "high": true, "exponent": true,
			"cutoff": true, "idle": true, "dropdead": true, "rejoin": true,
			"ckptdir": true, "gt": true, "gs": true, "eval": true,
			"fhorizon": true, "fnoise": true,
		}
		var ignored []string
		flag.Visit(func(f *flag.Flag) {
			if single[f.Name] {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			usageError(fmt.Sprintf("-grid searches the schedule on the standard grid world and ignores %s",
				strings.Join(ignored, ", ")))
		}
	}

	runErr := run(runConfig{
		nodes: *nodes, degree: *degree, rounds: *rounds, period: *period,
		peak: *peak, traceKind: *traceKin, traceCSV: *traceCSV, policyKind: *policyK,
		fhorizon: *fhorizon, fnoise: *fnoise,
		capacity: *capacity, initSoC: *initSoC,
		minSoC: *minSoC, lowSoC: *lowSoC, highSoC: *highSoC, exponent: *exponent,
		cutoff: *cutoff, idle: *idle, dropDead: *dropDead,
		rejoin: *rejoin, ckptDir: *ckptDir,
		grid:  *grid,
		async: *asyncRun,
		gt:    *gt, gs: *gs, lr: *lr, batch: *batch, steps: *steps,
		evalInt: *evalInt, seed: *seed,
		probe: probe,
	})
	if sink != nil {
		if err := sink.Close(); err != nil && runErr == nil {
			runErr = fmt.Errorf("closing telemetry sink: %w", err)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "error:", runErr)
		os.Exit(1)
	}
	// The audit verdict comes after the sink chain closed: Close runs the
	// auditor's end-of-stream checks (run_end present, no round left open).
	if auditor != nil {
		fmt.Fprint(os.Stderr, auditor.Summary())
		if !auditor.Ok() {
			os.Exit(1)
		}
	}
}

// usageError reports a flag-validation failure and exits with the
// conventional usage status.
func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "error:", msg)
	fmt.Fprintln(os.Stderr, "run with -h for usage")
	os.Exit(2)
}

// runConfig carries the parsed flag values into run; field names mirror the
// flags, so the call site assigns by name instead of threading two dozen
// positional parameters.
type runConfig struct {
	nodes, degree, rounds, period   int
	peak                            float64
	traceKind, traceCSV, policyKind string
	fhorizon                        int
	fnoise                          float64
	capacity, initSoC               float64
	minSoC, lowSoC, highSoC         float64
	exponent, cutoff, idle          float64
	dropDead                        bool
	rejoin, ckptDir                 string
	grid                            bool
	async                           bool
	gt, gs                          int
	lr                              float64
	batch, steps, evalInt           int
	seed                            uint64
	probe                           *obs.Probe
}

// mpcReserveSoC is the HorizonPlan safety margin: the planned trajectory
// keeps this much capacity above the brown-out cutoff.
const mpcReserveSoC = 0.05

// policySpec is one -policy registry entry: a summary line for the usage
// text, whether the policy consumes the forecast knobs, and its builder.
type policySpec struct {
	summary string
	mpc     bool
	build   func(c runConfig) (core.Policy, error)
}

// policyRegistry maps -policy names to their builders. Policies read
// battery state through the engine's round context, so builders need only
// flag values — never the fleet.
var policyRegistry = map[string]policySpec{
	"proportional": {summary: "train with probability SoC^-exponent (charge-aware Eq. 5)",
		build: func(c runConfig) (core.Policy, error) { return harvest.NewSoCProportional(c.exponent) }},
	"threshold": {summary: "train whenever SoC >= -minsoc",
		build: func(c runConfig) (core.Policy, error) { return harvest.NewSoCThreshold(c.minSoC) }},
	"hysteresis": {summary: "go dormant below -low, resume above -high",
		build: func(c runConfig) (core.Policy, error) { return harvest.NewSoCHysteresis(c.nodes, c.lowSoC, c.highSoC) }},
	"mpc": {summary: "plan over an oracle forecast of the trace (-fhorizon, -fnoise)", mpc: true,
		build: func(runConfig) (core.Policy, error) { return harvest.NewHorizonPlan(mpcReserveSoC) }},
	"mpc-persist": {summary: "plan over a learned tomorrow-like-today forecast (-fhorizon)", mpc: true,
		build: func(runConfig) (core.Policy, error) { return harvest.NewHorizonPlan(mpcReserveSoC) }},
}

// policyNames returns the registry's keys in stable order for error text.
func policyNames() string {
	names := make([]string, 0, len(policyRegistry))
	for name := range policyRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// usage prints the flag defaults plus the scenario list: which trace and
// policy combinations exist and what they model.
func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, `harvestsim simulates decentralized learning on an intermittently-powered
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
  proportional  train with probability SoC^-exponent (charge-aware Eq. 5)
  threshold     train whenever SoC >= -minsoc
  hysteresis    go dormant below -low, resume above -high
  mpc           forecast-aware MPC: plan a greedy training knapsack over an
                oracle forecast of the trace (-fhorizon rounds, default one
                -period day; -fnoise corrupts the oracle), execute the first
                decision, replan next round
  mpc-persist   the same planner over a learned forecast: tomorrow looks
                like today (per-node persistence of observed arrivals)

Rejoin rules (-rejoin, with -dropdead):
  stale    resume from parameters frozen at death (baseline)
  restore  resume from the freshest aggregated state in the live
           neighborhood (own durable snapshot when isolated)
  catchup  staleness-discounted blend: 2^(-staleness/2) of the snapshot,
           the rest from live neighbors' mean

Scenarios:

  harvestsim                                   # 96-node solar fleet
  harvestsim -trace markov -policy hysteresis  # bursty RF-powered fleet
  harvestsim -trace constant -peak 0           # no recharge (paper setting)
  harvestsim -trace csv -tracefile solar.csv   # replay a recorded trace
  harvestsim -dropdead -cutoff 0.25 -idle 0.2  # brown-outs silence radios
  harvestsim -dropdead -cutoff 0.3 -idle 0.25 -rejoin catchup
                                               # checkpoint/restore on rejoin
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
	flag.PrintDefaults()
}

// buildTrace constructs the ambient trace selected by -trace from the
// CLI's trace parameters; shared by the round and event-driven paths.
func buildTrace(c runConfig, nodes int, meanTrainWh float64) (harvest.Trace, error) {
	switch c.traceKind {
	case "diurnal":
		return harvest.NewDiurnal(c.peak*meanTrainWh, c.period, harvest.LongitudePhase(nodes))
	case "constant":
		return harvest.Constant{Wh: c.peak * meanTrainWh}, nil
	case "markov":
		return harvest.NewMarkovOnOff(nodes, c.peak*meanTrainWh, 0.25, 0.35, c.seed)
	case "csv":
		if c.traceCSV == "" {
			return nil, fmt.Errorf("-trace csv needs -tracefile")
		}
		fh, err := os.Open(c.traceCSV)
		if err != nil {
			return nil, err
		}
		defer fh.Close()
		replay, err := harvest.ReadReplay(fh)
		if err != nil {
			return nil, err
		}
		if replay.Nodes() < nodes {
			return nil, fmt.Errorf("replay covers %d nodes, fleet has %d", replay.Nodes(), nodes)
		}
		return replay, nil
	default:
		return nil, fmt.Errorf("unknown trace %q", c.traceKind)
	}
}

func run(c runConfig) error {
	if c.grid {
		return runGrid(c)
	}
	if c.async {
		return runAsyncHarvest(c)
	}
	// Unpack by name; the body reads like the flag list. The per-policy
	// knobs (minsoc, low/high, exponent) stay on c — the registry builders
	// read them there.
	nodes, degree, rounds, period := c.nodes, c.degree, c.rounds, c.period
	traceKind, policyKind := c.traceKind, c.policyKind
	capacity, initSoC := c.capacity, c.initSoC
	cutoff, idle, dropDead := c.cutoff, c.idle, c.dropDead
	rejoin, ckptDir := c.rejoin, c.ckptDir
	gt, gs, lr := c.gt, c.gs, c.lr
	batch, steps, evalInt, seed := c.batch, c.steps, c.evalInt, c.seed
	g, err := graph.Regular(nodes, degree, seed)
	if err != nil {
		return err
	}
	weights := graph.Metropolis(g)

	data := dataset.SyntheticConfig{Classes: 10, Dim: 32, Train: nodes * 40, Test: 640, Noise: 2.5, Seed: seed}
	train, testAll, err := dataset.Generate(data)
	if err != nil {
		return err
	}
	part, err := dataset.ShardPartition(train, nodes, 2, seed)
	if err != nil {
		return err
	}
	_, test := testAll.Split(testAll.Len() / 2)

	devices := energy.AssignDevices(nodes, energy.Devices())
	workload := energy.CIFAR10Workload()
	meanTrainWh := energy.NetworkRoundWh(nodes, energy.Devices(), workload) / float64(nodes)

	trace, err := buildTrace(c, nodes, meanTrainWh)
	if err != nil {
		return err
	}

	fleet, err := harvest.NewFleet(devices, workload, trace, harvest.Options{
		CapacityRounds: capacity,
		InitialSoC:     initSoC,
		// Options treats InitialSoC 0 as "unset"; the flag's 0 means empty.
		StartEmpty: initSoC == 0,
		CutoffSoC:  cutoff,
		IdleWh:     idle * meanTrainWh,
	})
	if err != nil {
		return err
	}

	spec, ok := policyRegistry[policyKind]
	if !ok {
		return fmt.Errorf("unknown policy %q (want %s)", policyKind, policyNames())
	}
	if !spec.mpc && (c.fhorizon != 0 || c.fnoise != 0) {
		return fmt.Errorf("-fhorizon/-fnoise only apply to the mpc policies, not -policy %s", policyKind)
	}
	policy, err := spec.build(c)
	if err != nil {
		return err
	}
	// The mpc policies plan over a forecast of the run's own trace: exact
	// (oracle), corrupted (-fnoise), or learned (persistence). The window
	// defaults to one simulated day.
	var forecaster harvest.Forecaster
	fhorizon := c.fhorizon
	if spec.mpc {
		if fhorizon < 0 {
			return fmt.Errorf("negative forecast window %d", fhorizon)
		}
		if fhorizon == 0 {
			fhorizon = period
		}
		switch {
		case policyKind == "mpc-persist":
			if c.fnoise != 0 {
				return fmt.Errorf("-fnoise corrupts the oracle of -policy mpc; mpc-persist forecasts from observations")
			}
			forecaster, err = harvest.NewPersistence(nodes, period)
		case c.fnoise > 0:
			forecaster, err = harvest.NewNoisyOracle(trace, c.fnoise, seed)
		case c.fnoise < 0:
			return fmt.Errorf("negative forecast noise %g", c.fnoise)
		default:
			forecaster, err = harvest.NewOracle(trace)
		}
		if err != nil {
			return err
		}
	}

	// The checkpoint/rejoin subsystem only makes sense when dead nodes
	// freeze, i.e. under -dropdead.
	var mgr *checkpoint.Manager
	if rejoin != "" {
		if !dropDead {
			return fmt.Errorf("-rejoin requires -dropdead")
		}
		rule, err := checkpoint.RuleByName(rejoin)
		if err != nil {
			return err
		}
		var store checkpoint.Store
		if ckptDir != "" {
			if store, err = checkpoint.NewFileStore(ckptDir, nodes); err != nil {
				return err
			}
		}
		if mgr, err = checkpoint.NewManager(nodes, store, rule); err != nil {
			return err
		}
	} else if ckptDir != "" {
		return fmt.Errorf("-ckptdir needs -rejoin")
	}

	// The pair was validated in main; this resolves it.
	schedule, err := core.ScheduleFromGammaFlags(gt, gs)
	if err != nil {
		return err
	}

	res, err := sim.Run(sim.Config{
		Graph: g, Weights: weights,
		Algo:   core.Algorithm{Label: "harvest-" + policy.Name(), Schedule: schedule, Policy: policy},
		Rounds: rounds,
		ModelFactory: func(node int, r *rng.RNG) *nn.Network {
			return nn.LogisticRegression(32, 10, r)
		},
		LR: lr, BatchSize: batch, LocalSteps: steps,
		Partition: part, Test: test,
		EvalEvery: evalInt, EvalSubsample: 320,
		Devices: devices, Workload: workload,
		// The CLI reads only the streamed per-round SoC statistics and the
		// final snapshot, so TrackSoC (an O(nodes) allocation per round)
		// stays off.
		Harvest:  fleet,
		Forecast: forecaster, ForecastHorizon: fhorizon,
		DropDeadNodes: dropDead,
		Checkpoint:    mgr,
		Probe:         c.probe,
		Seed:          seed,
	})
	if err != nil {
		return err
	}

	commModel := "route-through-dead"
	if dropDead {
		commModel = "drop-and-renormalize"
	}
	rejoinModel := "off"
	if mgr != nil {
		rejoinModel = mgr.Rule().Name()
		if ckptDir != "" {
			rejoinModel += " (snapshots in " + ckptDir + ")"
		}
	}
	policyModel := policy.Name()
	if forecaster != nil {
		policyModel += fmt.Sprintf(" [%s, window %d]", forecaster.Name(), fhorizon)
	}
	fmt.Printf("harvest fleet: %d nodes, %d-regular, %d rounds | trace %s | policy %s | capacity %g rounds | dead nodes: %s | rejoin: %s\n",
		nodes, degree, rounds, fleet.TraceName(), policyModel, capacity, commModel, rejoinModel)

	// The wave: per-round participation, fleet charge, and liveness over
	// time.
	var participation, meanSoC, liveCount []float64
	for _, m := range res.History {
		participation = append(participation, float64(m.TrainedCount))
		meanSoC = append(meanSoC, m.MeanSoC)
		liveCount = append(liveCount, float64(m.LiveCount))
	}
	fmt.Printf("participation/round: %s\n", report.Sparkline(participation))
	fmt.Printf("fleet mean SoC:      %s\n", report.Sparkline(meanSoC))
	fmt.Printf("live nodes/round:    %s\n", report.Sparkline(liveCount))

	ev := report.NewTable("evaluations",
		"round", "mean acc %", "std %", "mean SoC", "min SoC", "depleted", "live", "eff deg", "components", "cum harvest Wh")
	for _, m := range res.Evaluations() {
		ev.AddRowf("%d|%.2f|%.2f|%.3f|%.3f|%d|%d|%.2f|%d|%.4f",
			m.Round+1, m.MeanAcc*100, m.StdAcc*100, m.MeanSoC, m.MinSoC, m.Depleted,
			m.LiveCount, m.MeanLiveDegree, m.LiveComponents, m.CumHarvestWh)
	}
	ev.Render(os.Stdout)

	trainSlots := core.CountTrainRounds(schedule, rounds)
	tb := report.NewTable("per-node state of charge and participation",
		"node", "device", "phase", "trained", "particip %", "final SoC %", "harvested mWh", "consumed mWh")
	// Longitude phase only exists for the diurnal trace; other sources have
	// no per-node offset.
	phaseCell := func(int) string { return "-" }
	if traceKind == "diurnal" {
		phase := harvest.LongitudePhase(nodes)
		phaseCell = func(i int) string { return fmt.Sprintf("%.3f", phase(i)) }
	}
	for i := 0; i < nodes; i++ {
		tb.AddRowf("%d|%s|%s|%d|%.1f|%.1f|%.3f|%.3f",
			i, devices[i].Name, phaseCell(i), res.TrainedRounds[i],
			100*float64(res.TrainedRounds[i])/float64(trainSlots),
			100*res.FinalSoC[i], 1000*fleet.NodeHarvestedWh(i), 1000*fleet.NodeConsumedWh(i))
	}
	tb.Render(os.Stdout)

	trained := 0
	for _, tr := range res.TrainedRounds {
		trained += tr
	}
	fmt.Printf("\nfinal: %.2f%% ± %.2f | participation %.1f%% | harvested %.4f Wh, consumed %.4f Wh, wasted %.4f Wh",
		res.FinalMeanAcc*100, res.FinalStdAcc*100,
		100*float64(trained)/float64(nodes*trainSlots),
		res.TotalHarvestWh, fleet.ConsumedWh(), fleet.WastedWh())
	if dropDead {
		fmt.Printf(" | dropped msgs %d", res.TotalDroppedSends)
	}
	if mgr != nil {
		fmt.Printf(" | revivals %d, restores %d, mean staleness %.1f",
			res.TotalRevivals, res.TotalRestores, res.MeanRejoinStaleness())
	}
	fmt.Println()
	return nil
}

// runAsyncHarvest runs the event-driven intermittency engine (-async):
// the same fleet shape, trace, policy, and schedule flags as the round
// engine, but batteries evolve on a continuous virtual clock — nodes
// sleep until their solved charge-arrival crossing, and brown-outs
// interrupt in-flight training steps at the exact cutoff crossing. One
// trace round spans the fleet-mean training-step duration, so -rounds
// covers the same stretch of the ambient process as the round engine.
func runAsyncHarvest(c runConfig) error {
	g, err := graph.Regular(c.nodes, c.degree, c.seed)
	if err != nil {
		return err
	}
	data := dataset.SyntheticConfig{Classes: 10, Dim: 32, Train: c.nodes * 40, Test: 640, Noise: 2.5, Seed: c.seed}
	train, testAll, err := dataset.Generate(data)
	if err != nil {
		return err
	}
	part, err := dataset.ShardPartition(train, c.nodes, 2, c.seed)
	if err != nil {
		return err
	}
	_, test := testAll.Split(testAll.Len() / 2)

	devices := energy.AssignDevices(c.nodes, energy.Devices())
	workload := energy.CIFAR10Workload()
	meanTrainWh := energy.NetworkRoundWh(c.nodes, energy.Devices(), workload) / float64(c.nodes)
	roundSec := 0.0
	for _, d := range devices {
		roundSec += d.TrainRoundSeconds(workload)
	}
	roundSec /= float64(len(devices))

	trace, err := buildTrace(c, c.nodes, meanTrainWh)
	if err != nil {
		return err
	}
	spec, ok := policyRegistry[c.policyKind]
	if !ok {
		return fmt.Errorf("unknown policy %q (want %s)", c.policyKind, policyNames())
	}
	if c.policyKind == "mpc-persist" {
		return fmt.Errorf("-policy mpc-persist learns from per-round observations, which the event-driven engine does not produce; use -policy mpc")
	}
	if !spec.mpc && (c.fhorizon != 0 || c.fnoise != 0) {
		return fmt.Errorf("-fhorizon/-fnoise only apply to the mpc policies, not -policy %s", c.policyKind)
	}
	policy, err := spec.build(c)
	if err != nil {
		return err
	}
	var forecaster harvest.Forecaster
	fhorizon := c.fhorizon
	if spec.mpc {
		switch {
		case fhorizon < 0:
			return fmt.Errorf("negative forecast window %d", fhorizon)
		case c.fnoise < 0:
			return fmt.Errorf("negative forecast noise %g", c.fnoise)
		}
		if fhorizon == 0 {
			fhorizon = c.period
		}
		if c.fnoise > 0 {
			forecaster, err = harvest.NewNoisyOracle(trace, c.fnoise, c.seed)
		} else {
			forecaster, err = harvest.NewOracle(trace)
		}
		if err != nil {
			return err
		}
	}
	schedule, err := core.ScheduleFromGammaFlags(c.gt, c.gs)
	if err != nil {
		return err
	}

	horizon := float64(c.rounds) * roundSec
	res, err := async.Run(async.Config{
		Graph:   g,
		Algo:    core.Algorithm{Label: "async-harvest-" + policy.Name(), Schedule: schedule, Policy: policy},
		Horizon: horizon,
		ModelFactory: func(node int, r *rng.RNG) *nn.Network {
			return nn.LogisticRegression(32, 10, r)
		},
		LR: c.lr, BatchSize: c.batch, LocalSteps: c.steps,
		Partition: part, Test: test,
		Devices: devices, Workload: workload,
		Trace: trace,
		FleetOptions: harvest.Options{
			CapacityRounds: c.capacity,
			InitialSoC:     c.initSoC,
			StartEmpty:     c.initSoC == 0,
			CutoffSoC:      c.cutoff,
			IdleWh:         c.idle * meanTrainWh,
		},
		RoundSeconds: roundSec,
		Forecast:     forecaster, ForecastHorizon: fhorizon,
		EvalEverySeconds: float64(c.evalInt) * roundSec,
		EvalSubsample:    320,
		Probe:            c.probe,
		Seed:             c.seed,
	})
	if err != nil {
		return err
	}

	policyModel := policy.Name()
	if forecaster != nil {
		policyModel += fmt.Sprintf(" [%s, window %d]", forecaster.Name(), fhorizon)
	}
	fmt.Printf("event-driven harvest fleet: %d nodes, %d-regular, horizon %.0fs (%d trace rounds of %.2fs) | trace %s | policy %s | capacity %g rounds\n",
		c.nodes, c.degree, horizon, c.rounds, roundSec, trace.Name(), policyModel, c.capacity)

	var curve []float64
	tb := report.NewTable("evaluations",
		"virtual time s", "mean acc %", "std %", "steps", "train Wh")
	for _, s := range res.History {
		curve = append(curve, s.MeanAcc)
		tb.AddRowf("%.0f|%.2f|%.2f|%d|%.4f",
			s.Time, s.MeanAcc*100, s.StdAcc*100, s.StepsTotal, s.TrainWh)
	}
	tb.Render(os.Stdout)
	fmt.Printf("accuracy trend: %s\n", report.Sparkline(curve))

	steps, trained := 0, 0
	for i := range res.StepsPerNode {
		steps += res.StepsPerNode[i]
		trained += res.TrainedSteps[i]
	}
	fmt.Printf("final: %.2f%% ± %.2f | %d steps (%d trained), %d gossips (%d dropped) | %d brown-outs, %.1f%% node-time down | harvested %.4f Wh, consumed %.4f Wh, wasted %.4f Wh\n",
		res.FinalMeanAcc*100, res.FinalStdAcc*100, steps, trained,
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
func runGrid(c runConfig) error {
	regime, err := gridRegime(c)
	if err != nil {
		return err
	}
	res, err := experiments.RunGammaGrid(experiments.Options{
		Nodes: c.nodes, Rounds: c.rounds, Seed: c.seed,
		LR: c.lr, BatchSize: c.batch, LocalSteps: c.steps,
		Probe: c.probe,
	}, regime)
	if err != nil {
		return err
	}
	fmt.Printf("Γ-schedule grid search: %d nodes, %d rounds | regime %s | trace %s\n\n",
		c.nodes, c.rounds, res.Regime, res.Trace)
	res.Render(os.Stdout)
	return nil
}

// gridRegime maps the -trace flag onto a grid regime built from the CLI's
// own trace parameters. Stateful traces are constructed fresh per cell;
// the replay trace is stateless and safely shared.
func gridRegime(c runConfig) (experiments.GammaRegime, error) {
	switch c.traceKind {
	case "diurnal":
		return experiments.GammaRegime{Name: "diurnal", Trace: func(o experiments.Options, mean float64) (harvest.Trace, error) {
			return harvest.NewDiurnal(c.peak*mean, c.period, harvest.LongitudePhase(o.Nodes))
		}}, nil
	case "constant":
		name := "constant"
		if c.peak == 0 {
			name = "fixed-budget" // the paper's Figure 3 setting
		}
		return experiments.GammaRegime{Name: name, Trace: func(_ experiments.Options, mean float64) (harvest.Trace, error) {
			return harvest.Constant{Wh: c.peak * mean}, nil
		}}, nil
	case "markov":
		return experiments.GammaRegime{Name: "markov", Trace: func(o experiments.Options, mean float64) (harvest.Trace, error) {
			return harvest.NewMarkovOnOff(o.Nodes, c.peak*mean, 0.25, 0.35, o.Seed)
		}}, nil
	case "csv":
		if c.traceCSV == "" {
			return experiments.GammaRegime{}, fmt.Errorf("-trace csv needs -tracefile")
		}
		fh, err := os.Open(c.traceCSV)
		if err != nil {
			return experiments.GammaRegime{}, err
		}
		defer fh.Close()
		replay, err := harvest.ReadReplay(fh)
		if err != nil {
			return experiments.GammaRegime{}, err
		}
		if replay.Nodes() < c.nodes {
			return experiments.GammaRegime{}, fmt.Errorf("replay covers %d nodes, fleet has %d", replay.Nodes(), c.nodes)
		}
		return experiments.GammaRegime{Name: "replay", Trace: func(experiments.Options, float64) (harvest.Trace, error) {
			return replay, nil
		}}, nil
	default:
		return experiments.GammaRegime{}, fmt.Errorf("unknown trace %q", c.traceKind)
	}
}
