// Command obstool is the offline side of the observability layer
// (internal/obs + internal/obs/analyze): it validates JSONL telemetry
// event streams, audits and summarizes runs, and diffs two runs by
// manifest.
//
//	obstool events run.jsonl        # validate a harvestsim -events stream
//	obstool report run.jsonl        # audit + summarize one run
//	obstool diff a.jsonl b.jsonl    # compare two runs by manifest
//
// All subcommands exit 0 on success, 1 on malformed input or a failed
// audit, and 2 on a usage error — matching the other cmd/ binaries.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one obstool invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usageError(stderr, "need a subcommand: events | report | diff")
	}
	var sub func([]string, io.Writer, io.Writer) error
	switch args[0] {
	case "events":
		sub = runEvents
	case "report":
		sub = runReport
	case "diff":
		sub = runDiff
	case "-h", "-help", "--help":
		usage(stderr)
		return 0
	default:
		return usageError(stderr, fmt.Sprintf("unknown subcommand %q (want events, report, or diff)", args[0]))
	}
	err := sub(args[1:], stdout, stderr)
	var u errUsage
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &u):
		return usageError(stderr, string(u))
	default:
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
}

// errUsage is a subcommand's argument error; run reports it through
// usageError.
type errUsage string

func (e errUsage) Error() string { return string(e) }

// usageError reports a flag-validation failure and returns the
// conventional usage status.
func usageError(stderr io.Writer, msg string) int {
	fmt.Fprintln(stderr, "error:", msg)
	fmt.Fprintln(stderr, "run with -h for usage")
	return 2
}

func usage(out io.Writer) {
	fmt.Fprint(out, `obstool processes the simulator's telemetry artifacts (internal/obs).

Usage:

  obstool events file.jsonl
      Validate a JSONL telemetry event stream (harvestsim -events): every
      line a well-formed event of a known kind, opening with a run_start
      that carries a manifest config hash, closing with a run_end, rounds
      properly bracketed and strictly increasing. Prints a per-kind
      summary. "-" reads stdin.

  obstool report [-md] file.jsonl
      Audit a stream against the analyze invariants (energy conservation,
      brownout/revival alternation, counter monotonicity, phase-time
      accounting) and print a run summary: throughput, phase breakdown,
      SoC timelines, outage episodes, energy totals. -md emits markdown.
      Exits 1 when the audit finds violations. "-" reads stdin.

  obstool diff a.jsonl b.jsonl
      Compare two runs by their manifests and reconstructed reports:
      flags config-hash/seed/revision drift and prints accuracy, energy,
      and wall-time deltas.
`)
}

// parseFlags parses a subcommand's flags, reporting a bad flag as a
// usage error.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage(err.Error())
	}
	return err
}

// runEvents validates a JSONL event stream and prints its summary.
func runEvents(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("obstool events", flag.ContinueOnError)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errUsage("events takes exactly one file argument (\"-\" for stdin)")
	}
	fh, err := openArg(fs.Arg(0))
	if err != nil {
		return err
	}
	defer fh.Close()
	stats, err := obs.ValidateEvents(fh)
	if err != nil {
		return err
	}
	kinds := make([]string, 0, len(stats.Kinds))
	for k := range stats.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(stdout, "valid: %d events, %d rounds\n", stats.Events, stats.Rounds)
	for _, k := range kinds {
		fmt.Fprintf(stdout, "  %-13s %d\n", k, stats.Kinds[k])
	}
	return nil
}

// openArg opens a positional file argument, with "-" meaning stdin.
func openArg(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// runReport audits one stream and prints its reconstructed run summary.
func runReport(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("obstool report", flag.ContinueOnError)
	md := fs.Bool("md", false, "render the report as markdown")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errUsage("report takes exactly one file argument (\"-\" for stdin)")
	}
	fh, err := openArg(fs.Arg(0))
	if err != nil {
		return err
	}
	defer fh.Close()
	// One decode pass feeds both consumers: the auditor and the report
	// builder.
	events, err := analyze.ReadEvents(fh)
	if err != nil {
		return err
	}
	auditor := analyze.NewAuditor()
	for _, ev := range events {
		auditor.Emit(ev)
	}
	auditor.Close()
	rep := analyze.FromEvents(events)
	if *md {
		rep.WriteMarkdown(stdout)
	} else {
		rep.WriteText(stdout)
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, auditor.Summary())
	if !auditor.Ok() {
		return fmt.Errorf("audit found %d violation(s)", len(auditor.Violations())+auditor.Overflow())
	}
	return nil
}

// runDiff compares two runs by manifest and reconstructed report.
func runDiff(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("obstool diff", flag.ContinueOnError)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errUsage("diff takes exactly two stream file arguments")
	}
	reports := make([]*analyze.Report, 2)
	for i := 0; i < 2; i++ {
		fh, err := openArg(fs.Arg(i))
		if err != nil {
			return err
		}
		rep, err := analyze.ReadReport(fh)
		fh.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", fs.Arg(i), err)
		}
		reports[i] = rep
	}
	d := analyze.DiffReports(reports[0], reports[1])
	d.WriteText(stdout, fs.Arg(0), fs.Arg(1))
	return nil
}
