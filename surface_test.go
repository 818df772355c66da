package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported identifiers under internal/ that may
// stay without a non-test caller, one "pkg.Name  # reason" per line.
const surfaceAllowlist = "testdata/surface_allowlist.txt"

// maxSurfaceAllowlist caps the allowlist: it may only shrink.
const maxSurfaceAllowlist = 4

// stdlibMethods are method names a type implements for a standard-library
// interface (fmt.Stringer, error, json.Marshaler/Unmarshaler, io.Reader,
// io.Writer, io.Closer). The standard library calls them, so no selector in
// this module needs to name them.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true,
}

// goPackage is one directory of parsed non-test sources.
type goPackage struct {
	name  string
	files []*ast.File
}

// parseModule parses the sources of a module, given as slash paths relative
// to its root. Non-test files are parsed whole and grouped by directory;
// _test.go files are parsed for their imports only, returned as the set of
// module directories they import.
func parseModule(module string, sources map[string]string) (pkgs map[string]*goPackage, testImports map[string]bool, err error) {
	pkgs = map[string]*goPackage{}
	testImports = map[string]bool{}
	fset := token.NewFileSet()
	paths := make([]string, 0, len(sources))
	for p := range sources {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			f, err := parser.ParseFile(fset, p, sources[p], parser.ImportsOnly)
			if err != nil {
				return nil, nil, err
			}
			for _, imp := range f.Imports {
				if dir, ok := moduleDir(module, imp); ok {
					testImports[dir] = true
				}
			}
			continue
		}
		f, err := parser.ParseFile(fset, p, sources[p], 0)
		if err != nil {
			return nil, nil, err
		}
		dir := path.Dir(p)
		pkg := pkgs[dir]
		if pkg == nil {
			pkg = &goPackage{name: f.Name.Name}
			pkgs[dir] = pkg
		}
		pkg.files = append(pkg.files, f)
	}
	return pkgs, testImports, nil
}

// moduleDir returns the module-relative directory an import names, if it is
// one of the module's own packages.
func moduleDir(module string, imp *ast.ImportSpec) (string, bool) {
	return strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), module+"/")
}

// internalPackages maps each package name under internal/ to its directory.
func internalPackages(pkgs map[string]*goPackage) (map[string]string, error) {
	names := map[string]string{}
	for dir, pkg := range pkgs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		if other, dup := names[pkg.name]; dup {
			return nil, fmt.Errorf("package name %s is used by both %s and %s", pkg.name, other, dir)
		}
		names[pkg.name] = dir
	}
	return names, nil
}

// receiverType names the type a method is declared on.
func receiverType(fn *ast.FuncDecl) string {
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// declOwners returns the names a top-level declaration declares. A use of
// one of them inside the declaration itself is not a reference; a method's
// owner is its receiver type, so a type's own methods do not keep it alive.
func declOwners(d ast.Decl) []string {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv != nil {
			return []string{receiverType(d)}
		}
		return []string{d.Name.Name}
	case *ast.GenDecl:
		var names []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				names = append(names, s.Name.Name)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					names = append(names, n.Name)
				}
			}
		}
		return names
	}
	return nil
}

// indexedLiteral reports whether a composite literal of type t keys its
// elements by expression (a map, slice or array) rather than by field name.
// An elided type is taken as a struct.
func indexedLiteral(t ast.Expr) bool {
	switch t.(type) {
	case *ast.MapType, *ast.ArrayType:
		return true
	}
	return false
}

// deadSurface lists every exported package-level identifier ("pkg.Name")
// and every exported method ("pkg.Type.Method") declared in a non-test file
// under internal/ that no non-test file of the module references. Package
// keys are package names, which must be unique under internal/.
//
// A package-level name is referenced by a qualified use from another
// package, or by an unqualified use in its own package outside its own
// declaration (for a type, outside its own methods); a struct-literal key
// and a local of the same spelling are not uses. A method is referenced
// when its name is selected anywhere, is declared in an interface type, or
// is a standard-library interface method. A package that only _test.go
// files import is test support and is skipped.
func deadSurface(module string, sources map[string]string) ([]string, error) {
	pkgs, testImports, err := parseModule(module, sources)
	if err != nil {
		return nil, err
	}
	names, err := internalPackages(pkgs)
	if err != nil {
		return nil, err
	}

	used := map[string]bool{}     // dir + "." + Name
	selected := map[string]bool{} // method names selected or declared in an interface
	importedBy := map[string]bool{}
	for dir, pkg := range pkgs {
		for _, f := range pkg.files {
			aliases := map[string]string{}
			for _, imp := range f.Imports {
				target, ok := moduleDir(module, imp)
				if !ok || pkgs[target] == nil {
					continue
				}
				importedBy[target] = true
				alias := pkgs[target].name
				if imp.Name != nil {
					alias = imp.Name.Name
				}
				aliases[alias] = target
			}
			// Declarations a resolved identifier may point at and still name
			// a package-level object; any other resolution is a local.
			topLevel := map[any]bool{}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					topLevel[d] = true
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						topLevel[spec] = true
					}
				}
			}
			for _, d := range f.Decls {
				owners := declOwners(d)
				var visit func(ast.Node) bool
				visit = func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						selected[n.Sel.Name] = true
						// An unresolved identifier naming an import is a package.
						if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil && aliases[x.Name] != "" {
							used[aliases[x.Name]+"."+n.Sel.Name] = true
							return false
						}
						ast.Inspect(n.X, visit)
						return false
					case *ast.InterfaceType:
						for _, m := range n.Methods.List {
							for _, name := range m.Names {
								selected[name.Name] = true
							}
						}
					case *ast.Field:
						// Field, parameter and method names declare; the type refers.
						ast.Inspect(n.Type, visit)
						return false
					case *ast.CompositeLit:
						if n.Type != nil {
							ast.Inspect(n.Type, visit)
						}
						for _, e := range n.Elts {
							kv, ok := e.(*ast.KeyValueExpr)
							if !ok {
								ast.Inspect(e, visit)
								continue
							}
							// A map, slice or array key is an expression; any other
							// bare key names a struct field.
							if _, bare := kv.Key.(*ast.Ident); !bare || indexedLiteral(n.Type) {
								ast.Inspect(kv.Key, visit)
							}
							ast.Inspect(kv.Value, visit)
						}
						return false
					case *ast.Ident:
						if n.Obj != nil && !topLevel[n.Obj.Decl] {
							return false // a local name shadowing the package-level one
						}
						for _, o := range owners {
							if o == n.Name {
								return false
							}
						}
						used[dir+"."+n.Name] = true
					}
					return true
				}
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					ast.Inspect(d, visit)
					continue
				}
				// A function's own name declares it.
				if fn.Recv != nil {
					ast.Inspect(fn.Recv, visit)
				}
				ast.Inspect(fn.Type, visit)
				if fn.Body != nil {
					ast.Inspect(fn.Body, visit)
				}
			}
		}
	}

	var dead []string
	for name, dir := range names {
		if !importedBy[dir] && testImports[dir] {
			continue // test support
		}
		for _, f := range pkgs[dir].files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
					m := fn.Name.Name
					if ast.IsExported(m) && !selected[m] && !stdlibMethods[m] {
						dead = append(dead, name+"."+receiverType(fn)+"."+m)
					}
					continue
				}
				for _, o := range declOwners(d) {
					if ast.IsExported(o) && !used[dir+"."+o] {
						dead = append(dead, name+"."+o)
					}
				}
			}
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// checkSurface compares the dead names with the allowlist text. It returns
// one problem per disagreement: a dead name with no line, a line whose name
// is no longer dead (it gained a caller or was deleted), a line without a
// reason, a repeated line, or more lines than maxLines.
func checkSurface(dead []string, allowlist string, maxLines int) (problems []string, allowed int) {
	lines := map[string]bool{}
	for i, line := range strings.Split(allowlist, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "#")
		name = strings.TrimSpace(name)
		switch {
		case strings.TrimSpace(reason) == "":
			problems = append(problems, fmt.Sprintf("allowlist line %d: %s has no '# reason'", i+1, name))
		case lines[name]:
			problems = append(problems, fmt.Sprintf("allowlist line %d: %s is listed twice", i+1, name))
		}
		lines[name] = true
	}
	isDead := map[string]bool{}
	for _, name := range dead {
		isDead[name] = true
		if !lines[name] {
			problems = append(problems, fmt.Sprintf("%s has no caller outside tests: delete it, or allowlist it with a reason", name))
		}
	}
	for name := range lines {
		if !isDead[name] {
			problems = append(problems, fmt.Sprintf("%s is allowlisted but has a caller or no longer exists: remove its line", name))
		}
	}
	if len(lines) > maxLines {
		problems = append(problems, fmt.Sprintf("allowlist holds %d names, more than %d", len(lines), maxLines))
	}
	sort.Strings(problems)
	return problems, len(lines)
}

// moduleSources reads every .go file of the module rooted at the working
// directory, skipping hidden directories and testdata.
func moduleSources(t *testing.T) (module string, sources map[string]string) {
	t.Helper()
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
		}
	}
	sources = map[string]string{}
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		data, err := os.ReadFile(p)
		sources[filepath.ToSlash(p)] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return module, sources
}

// TestSurfaceLedger fails when an exported name under internal/ has no
// caller outside tests and no allowlist line, or when an allowlist line
// names something that is no longer dead. The CI docs job runs it with -v
// to print the allowlist size.
func TestSurfaceLedger(t *testing.T) {
	module, sources := moduleSources(t)
	dead, err := deadSurface(module, sources)
	if err != nil {
		t.Fatal(err)
	}
	allowlist, err := os.ReadFile(surfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	problems, allowed := checkSurface(dead, string(allowlist), maxSurfaceAllowlist)
	for _, p := range problems {
		t.Error(p)
	}
	t.Logf("surface ledger: %d dead names, %d allowlisted (cap %d)", len(dead), allowed, maxSurfaceAllowlist)
}

func TestSurfaceLedgerRules(t *testing.T) {
	sources := map[string]string{
		"internal/a/a.go": `package a

type Lonely struct{ next *Lonely }

func (l *Lonely) Self() *Lonely { return l }

type T struct{}

func (T) Picked()        {}
func (T) Unpicked()      {}
func (T) Declared()      {}
func (T) String() string { return "" }

func Used() T    { return T{} }
func Dead()      {}
func BenchOnly() {}
func TestOnly()  {}
func Inner() int { return 1 }

var inner = Inner()

type opts struct{ Seed, Shadowed int }

func Seed()     {}
func Shadowed() {}

var _ = func(Shadowed int) opts { return opts{Seed: Shadowed} }
`,
		"internal/a/keys.go": `package a

const Keyed = 1

var _ = map[int]string{Keyed: "keyed"}
`,
		"internal/a/a_test.go": `package a

import "m/internal/support"

var _ = support.Help
var _ = TestOnly
var _ = new(Lonely).Self
`,
		"internal/support/support.go": `package support

func Help() {}
`,
		"cmd/tool/main.go": `package main

import "m/internal/a"

type doer interface{ Declared() }

func main() { a.Used().Picked() }
`,
		"bench/main.go": `package main

import alias "m/internal/a"

func main() { alias.BenchOnly() }
`,
	}
	dead, err := deadSurface("m", sources)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a.Dead",        // a new dead name is flagged
		"a.Lonely",      // its own fields and methods do not keep a type alive
		"a.Lonely.Self", // a selector in a test does not count
		"a.Seed",        // a struct-literal key of the same spelling is a field
		"a.Shadowed",    // a parameter of the same spelling shadows it
		"a.T.Unpicked",  // never selected, in no interface, no stdlib name
		"a.TestOnly",    // test callers do not count
	}
	// Kept: Used and Picked (a cmd/ caller), Declared (an interface method),
	// String (a stdlib method), BenchOnly (a bench/ caller under an alias),
	// Inner (its own package), Keyed (a map-literal key in its own package),
	// support.Help (a test-only-imported package).
	if strings.Join(dead, " ") != strings.Join(want, " ") {
		t.Fatalf("dead = %v, want %v", dead, want)
	}

	allowlist := "# header\na.Dead  # kept\na.Lonely # kept\na.Lonely.Self # kept\na.Seed # kept\na.Shadowed # kept\na.T.Unpicked # kept\na.TestOnly # kept\n"
	if problems, n := checkSurface(dead, allowlist, len(want)); len(problems) != 0 || n != 7 {
		t.Fatalf("complete allowlist: %d lines, problems %v", n, problems)
	}
	problems, _ := checkSurface(dead[1:], allowlist+"a.Used # stale\n", len(want)+1)
	if len(problems) != 2 ||
		!strings.HasPrefix(problems[0], "a.Dead is allowlisted but has a caller or no longer exists") ||
		!strings.HasPrefix(problems[1], "a.Used is allowlisted but has a caller or no longer exists") {
		t.Fatalf("stale lines: problems %v", problems)
	}
	problems, _ = checkSurface(dead, "a.Lonely\n", len(want))
	if len(problems) != 7 || !strings.Contains(strings.Join(problems, "\n"), "a.Lonely has no '# reason'") {
		t.Fatalf("missing reason and missing lines: problems %v", problems)
	}
	var over strings.Builder
	for i := 0; i <= maxSurfaceAllowlist; i++ {
		fmt.Fprintf(&over, "a.N%d # r\n", i)
	}
	problems, _ = checkSurface(nil, over.String(), maxSurfaceAllowlist)
	if !strings.Contains(strings.Join(problems, "\n"), fmt.Sprintf("more than %d", maxSurfaceAllowlist)) {
		t.Fatalf("over the cap: problems %v", problems)
	}
}
