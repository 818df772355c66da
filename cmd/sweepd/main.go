// Command sweepd is the long-running sweep service (internal/sweep): it
// serves the experiment grid workloads over TCP with every simulation
// cell content-addressed and memoized, so repeated or overlapping grid
// searches — from any number of gridsearch clients — recompute only what
// has never been computed before.
//
//	sweepd -addr :7600 -cache /var/tmp/sweep-cache -workers 8
//	gridsearch -server localhost:7600 -job degree -progress
//
// With -cache the cell store is tiered: an in-memory LRU in front of an
// atomic on-disk JSON store, so cached cells survive daemon restarts and
// are invalidated only by a config or git-revision change. Without -cache
// everything lives in memory.
package main

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run serves until SIGINT or SIGTERM and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("sweepd", stderr)
	addr := fs.String("addr", "127.0.0.1:7600", "listen address")
	cache := fs.String("cache", "", "cell cache directory (empty = in-memory only)")
	mem := fs.Int("mem", 4096, "in-memory LRU capacity in cells (0 = unbounded)")
	workers := fs.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	err := cli.Parse(fs, args)
	if err == nil {
		err = cli.Check(fs, rules(mem, workers))
	}
	if err != nil {
		return cli.Exit(stderr, err)
	}

	var store sweep.Store = sweep.NewMemStore(*mem)
	if *cache != "" {
		disk, err := sweep.NewFileStore(*cache)
		if err != nil {
			return cli.Exit(stderr, err)
		}
		store = sweep.Tiered(sweep.NewMemStore(*mem), disk)
	}

	srv, err := sweep.NewServer(*addr, store, par.NewPool(*workers))
	if err != nil {
		return cli.Exit(stderr, err)
	}
	experiments.RegisterSweepHandlers(srv)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		fmt.Fprintln(stderr, "sweepd: shutting down")
		srv.Close()
	}()

	desc := *cache
	if desc == "" {
		desc = "in-memory"
	}
	fmt.Fprintf(stdout, "sweepd: serving on %s (cache %s, %d workers)\n", srv.Addr(), desc, par.NewPool(*workers).Workers())
	return cli.Exit(stderr, srv.Serve())
}

// rules is the flag table: no negative size (0 is unbounded or GOMAXPROCS).
func rules(mem, workers *int) []cli.Rule {
	return []cli.Rule{
		{Flags: "mem", Want: "a cell count ≥ 0", OK: func() bool { return *mem >= 0 }},
		{Flags: "workers", Want: "a worker count ≥ 0", OK: func() bool { return *workers >= 0 }},
	}
}
