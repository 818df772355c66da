// Package clitest drives a binary's run function (see package cli) the way
// its main does, for the tests under cmd/ and examples/.
package clitest

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Run is a binary's run function.
type Run func(args []string, stdout, stderr io.Writer) int

// Exec runs args and returns the exit status and stdout. "TMP" in an
// argument becomes a path in a fresh directory, and that path reads "TMP"
// again in the returned output.
func Exec(t *testing.T, run Run, args ...string) (int, string) {
	t.Helper()
	tmp := filepath.Join(t.TempDir(), "out")
	args = append([]string(nil), args...)
	for i, a := range args {
		args[i] = strings.ReplaceAll(a, "TMP", tmp)
	}
	var stdout bytes.Buffer
	code := run(args, &stdout, io.Discard)
	return code, strings.ReplaceAll(stdout.String(), tmp, "TMP")
}

// Golden checks that args exit 0 and print testdata/<name>.golden byte for
// byte.
func Golden(t *testing.T, run Run, name string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	code, got := Exec(t, run, args...)
	if code != 0 || got != string(want) {
		t.Errorf("%s %q: exit %d, stdout differs from testdata/%s.golden:\n%s", name, args, code, name, got)
	}
}

// Line checks that args exit 0 and print want as one whole line.
func Line(t *testing.T, run Run, want string, args ...string) {
	t.Helper()
	code, got := Exec(t, run, args...)
	if code != 0 || !strings.Contains("\n"+got, "\n"+want+"\n") {
		t.Errorf("%q: exit %d, no line %q in:\n%s", args, code, want, got)
	}
}

// Exit checks the exit status of args.
func Exit(t *testing.T, run Run, want int, args ...string) {
	t.Helper()
	if code, _ := Exec(t, run, args...); code != want {
		t.Errorf("%q: exit %d, want %d", args, code, want)
	}
}
