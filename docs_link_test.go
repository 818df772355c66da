package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target). Images and
// reference-style links are out of scope; the repo's docs use inline links
// only.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// mdHeading matches ATX headings, whose GitHub-style anchors the link
// checker validates fragments against.
var mdHeading = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*$`)

// nonAnchorRune strips everything GitHub's anchor slugger drops: anything
// that is not a letter, digit, space, hyphen, or underscore.
var nonAnchorRune = regexp.MustCompile(`[^\p{L}\p{N} _-]`)

// headingAnchors returns the set of GitHub-style anchors for a markdown
// file: headings lowercased, punctuation stripped, spaces replaced with
// hyphens, duplicates suffixed -1, -2, ...
func headingAnchors(md string) map[string]bool {
	anchors := map[string]bool{}
	for _, match := range mdHeading.FindAllStringSubmatch(md, -1) {
		slug := strings.ToLower(match[1])
		slug = nonAnchorRune.ReplaceAllString(slug, "")
		slug = strings.ReplaceAll(slug, " ", "-")
		if !anchors[slug] {
			anchors[slug] = true
			continue
		}
		for n := 1; ; n++ {
			withSuffix := fmt.Sprintf("%s-%d", slug, n)
			if !anchors[withSuffix] {
				anchors[withSuffix] = true
				break
			}
		}
	}
	return anchors
}

// TestDocsRelativeLinks fails on broken relative links in README.md and
// docs/: every non-URL target must exist on disk relative to the file that
// references it, and every #fragment pointing at a markdown file (or at the
// same file) must name a real heading anchor there. The CI docs job runs
// this alongside go vet and gofmt.
func TestDocsRelativeLinks(t *testing.T) {
	files := []string{"README.md", "ROADMAP.md", "PAPER.md", "PAPERS.md", "CHANGES.md"}
	entries, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, entries...)

	anchorsOf := func(path string) (map[string]bool, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return headingAnchors(string(data)), nil
	}

	checked, anchorsChecked := 0, 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, match := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := match[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; liveness is not this test's job
			}
			target, fragment, _ := strings.Cut(target, "#")
			resolved := file // pure in-page anchor: check against this file
			if target != "" {
				resolved = filepath.Join(filepath.Dir(file), target)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken relative link %q (resolved %s)", file, match[1], resolved)
					continue
				}
				checked++
			}
			if fragment == "" || !strings.HasSuffix(resolved, ".md") {
				continue
			}
			anchors, err := anchorsOf(resolved)
			if err != nil {
				t.Fatal(err)
			}
			if !anchors[fragment] {
				t.Errorf("%s: link %q points at missing anchor #%s in %s", file, match[1], fragment, resolved)
			}
			anchorsChecked++
		}
	}
	if checked == 0 {
		t.Fatal("no relative links found; the link checker is not seeing the docs")
	}
	if anchorsChecked == 0 {
		t.Fatal("no anchored links found; the anchor checker is not seeing the docs")
	}
}

func TestHeadingAnchors(t *testing.T) {
	md := "# Death, checkpoint, rejoin\n## Phase 0 — live-set snapshot (`harvest`, `graph`)\n## Dup\n## Dup\n"
	anchors := headingAnchors(md)
	for _, want := range []string{
		"death-checkpoint-rejoin",
		"phase-0--live-set-snapshot-harvest-graph",
		"dup",
		"dup-1",
	} {
		if !anchors[want] {
			t.Fatalf("anchor %q missing from %v", want, anchors)
		}
	}
}

// docIdent matches pkg.Name and pkg.Name.Member: a lower-case package name
// followed by one or two exported identifiers.
var docIdent = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)

// codeSpan matches an inline code span; bareCamel, a span that is one
// CamelCase identifier (a capital first, a lower-case letter after it).
var (
	codeSpan  = regexp.MustCompile("`([^`\n]+)`")
	bareCamel = regexp.MustCompile(`^[A-Z]\w*[a-z]\w*$`)
)

// bareNamesNotInCode are the bare names the docs may use although no Go
// file spells them, each with its reason.
var bareNamesNotInCode = map[string]string{
	"Worker": "DECOR's worker class, quoted from SNIPPETS.md",
}

// parseAll parses every source of the module, test files included, keyed
// by path.
func parseAll(sources map[string]string) (map[string]*ast.File, error) {
	files := map[string]*ast.File{}
	fset := token.NewFileSet()
	for p, src := range sources {
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files[p] = f
	}
	return files, nil
}

// spelledIdents collects every identifier the files spell, and each test,
// benchmark, fuzz target and example's name without its prefix too, as a
// -run or -bench pattern names it.
func spelledIdents(files map[string]*ast.File) map[string]bool {
	spelled := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				spelled[id.Name] = true
				for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
					if rest, ok := strings.CutPrefix(id.Name, prefix); ok && rest != "" {
						spelled[rest] = true
					}
				}
			}
			return true
		})
	}
	return spelled
}

// declaredIdents collects what a package declares in its non-test files:
// its package-level names and method names, and for each type its methods,
// fields and interface methods, with those of same-package embedded types
// promoted.
func declaredIdents(pkg *goPackage) (names map[string]bool, members map[string]map[string]bool) {
	names, members = map[string]bool{}, map[string]map[string]bool{}
	embeds := map[string][]string{}
	add := func(typ, member string) {
		if members[typ] == nil {
			members[typ] = map[string]bool{}
		}
		members[typ][member] = true
	}
	for _, f := range pkg.files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
				names[fn.Name.Name] = true // docs write pkg.Method too
				add(receiverType(fn), fn.Name.Name)
				continue
			}
			for _, o := range declOwners(d) {
				names[o] = true
			}
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				var fields *ast.FieldList
				switch t := ts.Type.(type) {
				case *ast.StructType:
					fields = t.Fields
				case *ast.InterfaceType:
					fields = t.Methods
				}
				if fields == nil {
					continue
				}
				for _, field := range fields.List {
					for _, n := range field.Names {
						add(ts.Name.Name, n.Name)
					}
					if len(field.Names) == 0 {
						typ := field.Type
						if star, ok := typ.(*ast.StarExpr); ok {
							typ = star.X
						}
						if id, ok := typ.(*ast.Ident); ok {
							add(ts.Name.Name, id.Name)
							embeds[ts.Name.Name] = append(embeds[ts.Name.Name], id.Name)
						}
					}
				}
			}
		}
	}
	// Promote embedded members until nothing changes.
	for changed := true; changed; {
		changed = false
		for typ, inner := range embeds {
			for _, e := range inner {
				for m := range members[e] {
					if !members[typ][m] {
						add(typ, m)
						changed = true
					}
				}
			}
		}
	}
	return names, members
}

// TestDocsIdentifiers fails when README.md or docs/ARCHITECTURE.md names
// pkg.Name or pkg.Name.Member for a package under internal/ and the package
// declares no such identifier in its non-test files — a doc left stale by a
// rename or a deletion. Name may be a package-level name or a method name;
// Member must be a method, field or interface method of type Name (or, when
// Name is not a type, of some type of the package). It also fails on a
// code span that is one bare CamelCase name (`Network`, `ModelColumn`) that
// no .go file of the module spells, outside bareNamesNotInCode: a name
// unexported or deleted without its package in the docs.
func TestDocsIdentifiers(t *testing.T) {
	module, sources := moduleSources(t)
	pkgs, _, err := parseModule(module, sources)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := internalPackages(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	files, err := parseAll(sources)
	if err != nil {
		t.Fatal(err)
	}
	spelled := spelledIdents(files)
	checked, bare := 0, 0
	for _, file := range []string{"README.md", "docs/ARCHITECTURE.md"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docIdent.FindAllStringSubmatch(string(data), -1) {
			pkg, name, member := m[1], m[2], m[3]
			dir, ok := dirs[pkg]
			if !ok {
				continue
			}
			checked++
			names, members := declaredIdents(pkgs[dir])
			switch {
			case !names[name]:
				t.Errorf("%s: %s names %s.%s, which package %s does not declare", file, m[0], pkg, name, dir)
			case member == "":
			case members[name] != nil && !members[name][member]:
				t.Errorf("%s: %s names member %s of %s.%s, which has none of that name", file, m[0], member, pkg, name)
			case members[name] == nil && !anyMember(members, member):
				t.Errorf("%s: %s names member %s, which no type of package %s has", file, m[0], member, dir)
			}
		}
		for _, m := range codeSpan.FindAllStringSubmatch(string(data), -1) {
			name := m[1]
			if !bareCamel.MatchString(name) {
				continue
			}
			bare++
			if _, ok := bareNamesNotInCode[name]; !ok && !spelled[name] {
				t.Errorf("%s: `%s` is spelled by no .go file of the module", file, name)
			}
		}
	}
	if checked == 0 || bare == 0 {
		t.Fatalf("%d pkg.Name references and %d bare names found; the identifier checker is not seeing the docs", checked, bare)
	}
	t.Logf("%d pkg.Name references and %d bare names checked", checked, bare)
}

// anyMember reports whether some type's members include member.
func anyMember(members map[string]map[string]bool, member string) bool {
	for _, ms := range members {
		if ms[member] {
			return true
		}
	}
	return false
}
