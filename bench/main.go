// Command bench is the repository's benchmark: four single-caller
// workloads over the sim/nn/tensor/transport stack, the async engine and
// the sweep service, run in this process at GOMAXPROCS(1) through exported
// functions of internal/* only. See README.md for the metric tables and
// BENCHMARK.json for the driver's contract.
//
//	bench -seed 42                                  every workload, one record line each
//	bench -workload grid_cold -seed 7 -seconds 20   one workload; last line is the driver's result
//	bench -workload grid_cold -trace 1 -trace-out spans.json
//	bench -compare a.jsonl b.jsonl                  two sets of records written with -out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

var workloadNames = []string{"grid_cold", "sync_wide_mlp", "sweepd_warm", "async_harvest"}

// options is the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceOut string
	out      string
	tmpRoot  string
	sizes    sizes
}

// watchdog is the longest one workload may take before the harness aborts
// with a non-zero exit; the driver allows a run 180 s.
const watchdog = 170 * time.Second

func (o options) runConfig() runConfig {
	return runConfig{
		seconds: o.seconds, units: o.sizes.units,
		setupSlice: time.Second / 16, setupMin: o.sizes.setupMin, setupMax: o.sizes.setupMax,
	}
}

func main() { os.Exit(run(fullSizes, os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; sz is fullSizes except in the smoke test.
func run(sz sizes, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{sizes: sz}
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+fmt.Sprint(workloadNames))
	fs.Uint64Var(&o.seed, "seed", 42, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long each workload's timed loop measures (at least 10 units are always timed)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run's per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the recorded spans to this file at exit")
	fs.StringVar(&o.out, "out", "", "append one record line per workload to this file (input of -compare)")
	fs.StringVar(&o.tmpRoot, "tmp", ".bench_build", "directory the sweep cache fixture is created (and removed) under")
	compare := fs.Bool("compare", false, "compare two record files: bench -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		ok, err := runCompare(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	names := workloadNames
	if o.workload != "all" {
		names = []string{o.workload}
	}

	// Every number is taken on one processor: two disagreed 8% between
	// set medians on the 2-vCPU host, and the contract wants a stated
	// GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	goroutines := runtime.NumGoroutine()
	ok := true
	for _, name := range names {
		rec, err := runWorkload(name, o, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		for _, note := range rec.Notes {
			fmt.Fprintf(stderr, "%s: %s\n", name, note)
		}
		if err := emit(rec, o, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		ok = ok && rec.Correct
	}
	if err := settled(goroutines); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload measures one workload under the watchdog: a hang becomes a
// non-zero exit, never a process left running.
func runWorkload(name string, o options, stderr io.Writer) (*record, error) {
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "bench: %s exceeded the %v watchdog; aborting\n", name, watchdog)
		os.Exit(3)
	})
	defer timer.Stop()

	if o.trace == 1 {
		rec, tr, err := tracedRun(name, o.sizes, o.seed, o.runConfig(), o.tmpRoot)
		if o.traceOut != "" {
			if werr := tr.write(o.traceOut); err == nil {
				err = werr
			}
		}
		return rec, err
	}
	return measureEndToEnd(name, o)
}

// newWorkload builds one workload by name; remove deletes whatever fixture
// it made on disk.
func newWorkload(name string, o options) (w workload, remove func(), err error) {
	remove = func() {}
	switch name {
	case "grid_cold":
		w = newGridCold(o.sizes, o.seed)
	case "sync_wide_mlp":
		w = newSyncWideMLP(o.sizes, o.seed)
	case "sweepd_warm":
		warm, err := newSweepdWarm(o.sizes, o.seed, o.tmpRoot)
		if err != nil {
			return nil, remove, err
		}
		w, remove = warm, func() { warm.remove() }
	case "async_harvest":
		w = newAsyncHarvest(o.sizes, o.seed)
	default:
		err = fmt.Errorf("unknown workload %q (want all or one of %v)", name, workloadNames)
	}
	return w, remove, err
}

// emit prints the record — as the driver's four-key result when a single
// workload was selected, as a full record line otherwise — and appends it
// to -out.
func emit(rec *record, o options, stdout io.Writer) error {
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line := full
	if o.workload != "all" {
		line, err = json.Marshal(rec.result)
		if err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return err
	}
	if o.out == "" {
		return nil
	}
	f, err := os.OpenFile(o.out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%s\n", full); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// settled waits briefly for the goroutine count to return to its value
// before the first workload: every Serve loop, connection handler and pool
// worker the harness caused must have exited.
func settled(want int) error {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running at exit, started with %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
