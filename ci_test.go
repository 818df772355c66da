package repro

import (
	"fmt"
	"go/ast"
	"os"
	"path"
	"regexp"
	"strings"
	"testing"
)

// goTestBoolFlags are the go test flags CI passes that take no value; any
// other flag takes the next word unless it is written -flag=value.
var goTestBoolFlags = map[string]bool{
	"race": true, "short": true, "v": true, "cover": true, "json": true, "failfast": true, "benchmem": true,
}

// patternKinds maps a go test flag to the function prefixes its pattern
// selects from.
var patternKinds = map[string][]string{
	"run":   {"Test", "Fuzz", "Example"},
	"bench": {"Benchmark"},
	"fuzz":  {"Fuzz"},
}

// shellWords splits a command line into words, honouring single and double
// quotes, and stops at the first unquoted |, ;, & or >.
func shellWords(line string) []string {
	var words []string
	var word strings.Builder
	inWord := false
	var quote rune
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			word.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, word.String())
				word.Reset()
				inWord = false
			}
		case strings.ContainsRune("|;&>", r):
			if inWord {
				words = append(words, word.String())
			}
			return words
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, word.String())
	}
	return words
}

// topAlternatives splits a regular expression at its top-level |, outside
// groups, character classes and escapes.
func topAlternatives(re string) []string {
	var alts []string
	depth, class, start := 0, false, 0
	for i := 0; i < len(re); i++ {
		switch c := re[i]; {
		case c == '\\':
			i++
		case class:
			class = c != ']'
		case c == '[':
			class = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			alts = append(alts, re[start:i])
			start = i + 1
		}
	}
	return append(alts, re[start:])
}

// funcsByDir lists the package-level functions of every directory.
func funcsByDir(files map[string]*ast.File) map[string][]string {
	funcs := map[string][]string{}
	for p, f := range files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[path.Dir(p)] = append(funcs[path.Dir(p)], fn.Name.Name)
			}
		}
	}
	return funcs
}

// inPackages reports whether module directory dir is one of the go test
// package patterns pkgs (".", "./a/b" or "./a/...").
func inPackages(dir string, pkgs []string) bool {
	for _, pkg := range pkgs {
		pkg = path.Clean(pkg)
		if base, ok := strings.CutSuffix(pkg, "/..."); ok {
			if dir == base || strings.HasPrefix(dir, base+"/") {
				return true
			}
		} else if pkg == "..." || dir == pkg {
			return true
		}
	}
	return false
}

// checkCIPatterns returns a problem for every top-level alternative of a
// -run, -bench or -fuzz pattern of a go test command in workflow that
// selects no function of the packages the command names, and the number
// of alternatives it checked. "^$" selects nothing on purpose and is not
// checked.
func checkCIPatterns(workflow string, funcs map[string][]string) (problems []string, checked int) {
	for n, line := range strings.Split(workflow, "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		patterns := map[string]string{}
		var pkgs []string
		words := shellWords(cmd)
		for i := 0; i < len(words); i++ {
			name, isFlag := strings.CutPrefix(words[i], "-")
			switch {
			case !isFlag:
				pkgs = append(pkgs, words[i])
			case strings.Contains(name, "="):
				name, value, _ := strings.Cut(name, "=")
				patterns[name] = value
			case !goTestBoolFlags[name] && i+1 < len(words):
				patterns[name] = words[i+1]
				i++
			}
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		var names []string
		for dir, fs := range funcs {
			if inPackages(dir, pkgs) {
				names = append(names, fs...)
			}
		}
		for flag, kinds := range patternKinds {
			pattern, ok := patterns[flag]
			if !ok || pattern == "^$" {
				continue
			}
			for _, alt := range topAlternatives(pattern) {
				checked++
				re, err := regexp.Compile(alt)
				if err != nil {
					problems = append(problems, fmt.Sprintf("line %d: -%s alternative %q: %v", n+1, flag, alt, err))
					continue
				}
				if !matchesAny(re, names, kinds) {
					problems = append(problems, fmt.Sprintf("line %d: -%s alternative %q selects no %s function in %v",
						n+1, flag, alt, strings.Join(kinds, "/"), pkgs))
				}
			}
		}
	}
	return problems, checked
}

// matchesAny reports whether re matches a name that has one of prefixes.
func matchesAny(re *regexp.Regexp, names, prefixes []string) bool {
	for _, name := range names {
		for _, prefix := range prefixes {
			if strings.HasPrefix(name, prefix) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}

// TestCIPatternsSelectTests fails when a -run, -bench or -fuzz pattern in
// CI's workflow has a top-level alternative that selects no test,
// benchmark or fuzz target in the packages its command names: go test
// passes with "no tests to run" there, so a renamed or deleted test would
// silently leave its CI step checking nothing.
func TestCIPatternsSelectTests(t *testing.T) {
	workflow, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	_, sources := moduleSources(t)
	files, err := parseAll(sources)
	if err != nil {
		t.Fatal(err)
	}
	funcs := funcsByDir(files)
	problems, checked := checkCIPatterns(string(workflow), funcs)
	for _, p := range problems {
		t.Errorf("ci.yml %s", p)
	}
	if checked == 0 {
		t.Fatal("no -run, -bench or -fuzz patterns found; the checker is not seeing the workflow")
	}
	t.Logf("%d pattern alternatives checked", checked)
	if p, _ := checkCIPatterns("run: go test -run 'TestCIPatternsSelectTests|TestNoSuchTest' .", funcs); len(p) != 1 {
		t.Errorf("a pattern naming a missing test gave %d problems, want 1: %q", len(p), p)
	}
}
