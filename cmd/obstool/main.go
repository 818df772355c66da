// Command obstool is the offline side of the observability layer
// (internal/obs + internal/obs/analyze): it audits and summarizes JSONL
// telemetry event streams, and diffs two runs by manifest.
//
//	obstool report run.jsonl        # audit + summarize one run
//	obstool diff a.jsonl b.jsonl    # compare two runs by manifest
//
// All subcommands exit 0 on success, 1 on malformed input or a failed
// audit, and 2 on a usage error — matching the other cmd/ binaries.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/obs/analyze"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one obstool invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return cli.Exit(stderr, cli.UsageError("need a subcommand: report | diff"))
	}
	var sub func([]string, io.Writer, io.Writer) error
	switch args[0] {
	case "report":
		sub = runReport
	case "diff":
		sub = runDiff
	case "-h", "-help", "--help":
		usage(stderr)
		return 0
	default:
		return cli.Exit(stderr, cli.Usagef("unknown subcommand %q (want report or diff)", args[0]))
	}
	return cli.Exit(stderr, sub(args[1:], stdout, stderr))
}

func usage(out io.Writer) {
	fmt.Fprint(out, `obstool processes the simulator's telemetry artifacts (internal/obs).

Usage:

  obstool report [-md] file.jsonl
      Audit a stream (skiptrain -events) against the analyze invariants
      (stream structure and known event kinds, a manifest config hash on
      every run_start, round bracketing, energy conservation,
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

// openArg opens a positional file argument, with "-" meaning stdin.
func openArg(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// runReport audits one stream and prints its reconstructed run summary.
func runReport(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("obstool report", stderr)
	md := fs.Bool("md", false, "render the report as markdown")
	files, err := cli.Args(fs, args, 1, `exactly one file argument ("-" for stdin)`)
	if err != nil {
		return err
	}
	fh, err := openArg(files[0])
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
	fs := cli.NewFlagSet("obstool diff", stderr)
	files, err := cli.Args(fs, args, 2, "exactly two stream file arguments")
	if err != nil {
		return err
	}
	reports := make([]*analyze.Report, 2)
	for i, file := range files {
		fh, err := openArg(file)
		if err != nil {
			return err
		}
		rep, err := analyze.ReadReport(fh)
		fh.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		reports[i] = rep
	}
	d := analyze.DiffReports(reports[0], reports[1])
	d.WriteText(stdout, files[0], files[1])
	return nil
}
