package registry

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/analysistest"
)

// sourcePackage is one package directory and its parsed non-test files.
type sourcePackage struct {
	path  string
	files []*ast.File
}

// moduleRoot is the repro module's root directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// walkModule returns every package directory of the module rooted at
// root, whose import path is modPath, with its non-test files parsed.
// Nested modules (a directory with its own go.mod) and testdata trees are
// not part of it.
func walkModule(t *testing.T, fset *token.FileSet, root, modPath string) []sourcePackage {
	t.Helper()
	var pkgs []sourcePackage
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		goFiles, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil || len(goFiles) == 0 {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkg := sourcePackage{path: strings.TrimSuffix(modPath+"/"+filepath.ToSlash(rel), "/.")}
		for _, name := range goFiles {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg.files = append(pkg.files, f)
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// modulePackages lists the import path of every package directory in the
// repro module.
func modulePackages(t *testing.T) []string {
	var pkgs []string
	for _, pkg := range walkModule(t, token.NewFileSet(), moduleRoot(t), "repro") {
		pkgs = append(pkgs, pkg.path)
	}
	sort.Strings(pkgs)
	return pkgs
}

// appliesTo returns the packages among pkgs that c applies to.
func appliesTo(c Check, pkgs []string) []string {
	var out []string
	for _, p := range pkgs {
		if c.Applies(p) {
			out = append(out, p)
		}
	}
	return out
}

// TestRegistryScopes pins each check's package scope, and requires the
// detertaint scope to be closed under in-module imports: a package that
// sim-reachable code imports is sim-reachable too.
func TestRegistryScopes(t *testing.T) {
	pkgs := modulePackages(t)
	scoped := map[string][]string{
		"detertaint": {
			"repro/internal/bench",
			"repro/internal/cluster",
			"repro/internal/core",
			"repro/internal/experiments",
			"repro/internal/fabric",
			"repro/internal/ibv",
			"repro/internal/loggp",
			"repro/internal/mpi",
			"repro/internal/netgauge",
			"repro/internal/ploggp",
			"repro/internal/sim",
			"repro/internal/stats",
			"repro/internal/sweep",
			"repro/internal/trace",
			"repro/internal/tuning",
			"repro/internal/ucx",
		},
		"nopanic": {
			"repro/internal/core",
			"repro/partib",
		},
	}
	names := map[string]bool{}
	for _, c := range checks() {
		name := c.Analyzer.Name
		if names[name] {
			t.Errorf("two checks named %s", name)
		}
		names[name] = true
		got, want := appliesTo(c, pkgs), scoped[name]
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s applies to\n  %v\nwant\n  %v", name, got, want)
		}
	}
	for name := range scoped {
		if !names[name] {
			t.Errorf("no check named %s", name)
		}
	}
	simReachable := map[string]bool{}
	for _, p := range scoped["detertaint"] {
		simReachable[p] = true
	}
	for _, pkg := range walkModule(t, token.NewFileSet(), moduleRoot(t), "repro") {
		if !simReachable[pkg.path] {
			continue
		}
		for _, f := range pkg.files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err == nil && strings.HasPrefix(path, "repro/") && !simReachable[path] {
					t.Errorf("%s imports %s, which detertaint does not check", pkg.path, path)
				}
			}
		}
	}
}

// TestModuleLint runs every check over every module package in its scope,
// loaded from source by the loader the analyzer fixtures use, and fails
// on any diagnostic. `// want` comments mean nothing in module code, so
// no finding can be waived.
func TestModuleLint(t *testing.T) {
	ld := analysistest.NewLoader(moduleRoot(t), "repro/")
	pkgs := modulePackages(t)
	for _, c := range checks() {
		for _, pkg := range appliesTo(c, pkgs) {
			ld.Lint(t, c.Analyzer, pkg)
		}
	}
}

// keepUnused names exported package-level identifiers that may go without
// a non-test use.
var keepUnused = map[string]bool{
	// ROADMAP item 6 (loggp.Calibrate) may feed measured per-size terms to
	// the model through this constructor and Model.Table.
	"repro/internal/ploggp.NewWithTable": true,
}

// exportedDecls returns the declaring identifiers of the exported
// package-level funcs, types, consts and vars of a package. Methods are
// not package-level names.
func exportedDecls(files []*ast.File) []*ast.Ident {
	var out []*ast.Ident
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					out = append(out, d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							out = append(out, s.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								out = append(out, n)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// collectUses records "importpath.Name" for every qualified reference to
// another package and every bare reference within the package itself.
// Declaring identifiers, selected fields and methods, struct fields and
// method names are not references; a local that shadows a package-level
// name counts as one, which only makes the check more lenient.
func collectUses(pkg sourcePackage, uses map[string]bool) {
	declared := map[*ast.Ident]bool{}
	for _, id := range exportedDecls(pkg.files) {
		declared[id] = true
	}
	for _, f := range pkg.files {
		imports := map[string]string{}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = path
		}
		skip := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if path, ok := imports[x.Name]; ok {
						uses[path+"."+n.Sel.Name] = true
					}
				}
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.FuncDecl:
				if n.Recv != nil {
					skip[n.Name] = true
				}
			case *ast.Ident:
				if !skip[n] && !declared[n] {
					uses[pkg.path+"."+n.Name] = true
				}
			}
			return true
		})
	}
}

// TestNoTestOnlyExports fails when an exported package-level func, type,
// const or var of internal/... or partib has no use in any non-test file
// of this module or of the benchmark module: code only tests reach is
// deleted with its tests. Test-support packages (named *test, like
// analysistest) exist for tests and are out of scope.
func TestNoTestOnlyExports(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	pkgs := walkModule(t, fset, root, "repro")
	pkgs = append(pkgs, walkModule(t, fset, filepath.Join(root, "benchmark"), "repro/benchmark")...)
	uses := map[string]bool{}
	for _, pkg := range pkgs {
		collectUses(pkg, uses)
	}
	var unused []string
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.path, "repro/internal/") && pkg.path != "repro/partib" {
			continue
		}
		if strings.HasSuffix(pkg.path, "test") {
			continue
		}
		for _, id := range exportedDecls(pkg.files) {
			name := pkg.path + "." + id.Name
			if !uses[name] && !keepUnused[name] {
				unused = append(unused, fset.Position(id.Pos()).String()+": "+name)
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no use outside tests", u)
	}
}
