package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// extensionGoldenOptions is the scale of testdata/extensions.golden.
func extensionGoldenOptions() Options {
	o := tiny()
	o.Nodes, o.Rounds = 12, 8
	return o
}

// renderExtensions writes every extension table and Section 5.1 at
// extensionGoldenOptions, in a fixed order, to one string.
func renderExtensions(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	o := extensionGoldenOptions()
	o.Out = &sb
	for _, run := range []func() error{
		func() error { _, err := TableHarvest(o); return err },
		func() error { _, err := TableBrownout(o); return err },
		func() error { _, err := TableRejoin(o); return err },
		func() error { _, err := TableForecast(o); return err },
		func() error { _, err := TableAsyncHarvest(o); return err },
		func() error { _, err := TableDegreeGamma(o, nil); return err },
		func() error { _, err := Section51Fairness(o); return err },
	} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// TestExtensionTablesGolden pins the rendered bytes of the extension
// tables, which gridsearch's paper golden does not cover.
func TestExtensionTablesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "extensions.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := renderExtensions(t); got != string(want) {
		t.Errorf("extension tables differ from testdata/extensions.golden:\n%s", got)
	}
}
