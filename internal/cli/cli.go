// Package cli is the shape every binary under cmd/ and examples/ shares.
// A binary's main is
//
//	func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
//
// and its run parses a FlagSet from NewFlagSet with Parse, checks its
// flag table with Check, and returns Exit's status: 0 on success or -h,
// 2 on a usage error, 1 on any other failure.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/graph"
)

// UsageError is a mistake in how a binary was invoked: a bad flag, a
// flag set where it does not apply, or an unexpected argument.
type UsageError string

func (e UsageError) Error() string { return string(e) }

// Usagef formats a UsageError.
func Usagef(format string, a ...any) error { return UsageError(fmt.Sprintf(format, a...)) }

// NewFlagSet returns a FlagSet that reports to stderr and returns its
// errors instead of exiting.
func NewFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Args parses args into fs and returns the positional arguments, of which
// there must be n. A bad flag, or another count, is a UsageError that says
// what the command takes; -h returns flag.ErrHelp.
func Args(fs *flag.FlagSet, args []string, n int, takes string) ([]string, error) {
	err := fs.Parse(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		err = UsageError(err.Error())
	case fs.NArg() != n:
		err = Usagef("%s takes %s, got %q", fs.Name(), takes, fs.Args())
	}
	return fs.Args(), err
}

// Parse is Args for a binary that takes no positional arguments. The flag
// package stops at the first one, so an argument is a UsageError rather
// than the silent end of every flag after it.
func Parse(fs *flag.FlagSet, args []string) error {
	_, err := Args(fs, args, 0, "no arguments")
	return err
}

// Rule is one row of a binary's flag table: each of Flags (names separated
// by spaces) set on the command line must satisfy OK, which states where
// the flag applies and which values it takes. A flag at its default value
// is never checked: it changes nothing, so it cannot be silently ignored.
type Rule struct {
	Flags, Want string
	OK          func() bool
}

// The largest job a flag table takes. A run builds every node's model and
// data and runs every round, so these bound what one command line can make
// the process allocate and compute.
const (
	maxNodes  = 4096
	maxRounds = 60000
)

// Scale is the flag-table rows of -nodes and -rounds: a value in
// [1, maxNodes] on which graph.Regular builds every degree the job runs,
// degrees(), and one in [1, maxRounds].
func Scale(nodes, rounds *int, degrees func() []int) []Rule {
	return []Rule{
		{Flags: "nodes", Want: fmt.Sprintf("a value in [1, %d] with a regular topology of every degree d the job runs (%s)", maxNodes, Topology),
			OK: func() bool {
				return *nodes >= 1 && *nodes <= maxNodes &&
					!slices.ContainsFunc(degrees(), func(d int) bool { return graph.CheckRegular(*nodes, d) != nil })
			}},
		{Flags: "rounds", Want: fmt.Sprintf("a value in [1, %d]", maxRounds), OK: func() bool { return *rounds >= 1 && *rounds <= maxRounds }},
	}
}

// Topology is what graph.CheckRegular asks of a degree d on -nodes, as a
// flag table states it.
const Topology = "2 ≤ d < nodes and nodes·d even"

// Check returns a UsageError naming every flag set in fs whose rule fails.
func Check(fs *flag.FlagSet, rules []Rule) error {
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		for _, r := range rules {
			if slices.Contains(strings.Fields(r.Flags), f.Name) && f.Value.String() != f.DefValue && !r.OK() {
				bad = append(bad, fmt.Sprintf("-%s %s needs %s", f.Name, f.Value, r.Want))
			}
		}
	})
	if len(bad) > 0 {
		return UsageError(strings.Join(bad, "; "))
	}
	return nil
}

// Exit reports err on stderr and returns the exit status for it.
func Exit(stderr io.Writer, err error) int {
	var u UsageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &u):
		fmt.Fprintln(stderr, "error:", u)
		fmt.Fprintln(stderr, "run with -h for usage")
		return 2
	default:
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
}
