// Package analysistest type-checks packages from source for the
// repository's analyzers, standing in for x/tools' analysistest and for a
// vet driver in this hermetic build. Run checks an analyzer against
// fixture packages under the calling package's testdata/src, whose
// `// want "re"` comments on the offending lines are the expected
// diagnostics; a fixture directory shadows the real package of its import
// path, so fixtures can pose as repro/internal/... packages with stub
// dependencies. Loader.Lint checks a module's own packages and fails on
// every diagnostic. Both go through one Loader: a package's files are its
// non-test files that match the build constraints, and standard-library
// imports are type-checked from source (importer "source").
package analysistest

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads each fixture package, runs the analyzer, and compares its
// diagnostics against the fixture's `// want` expectations.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	ld := NewLoader(root, "")
	for _, pkg := range pkgs {
		t.Run(strings.ReplaceAll(pkg, "/", "_"), func(t *testing.T) {
			t.Helper()
			p := ld.load(t, pkg)
			check(t, ld.fset, p.files, ld.run(t, a, p))
		})
	}
}

// Lint runs a over the package at path and reports each of its
// diagnostics as a test error at the finding's file and line, relative to
// the loader's root. Comments are not read, so no finding can be waived.
func (ld *Loader) Lint(t *testing.T, a *analysis.Analyzer, path string) {
	t.Helper()
	for _, d := range ld.run(t, a, ld.load(t, path)) {
		file := strings.TrimPrefix(d.Pos.Filename, ld.root+string(filepath.Separator))
		t.Errorf("%s:%d:%d: %s: %s", file, d.Pos.Line, d.Pos.Column, a.Name, d.Message)
	}
}

// run passes one loaded package through a.
func (ld *Loader) run(t *testing.T, a *analysis.Analyzer, p *loaded) []analysis.Diagnostic {
	t.Helper()
	pass := analysis.NewPass(ld.fset, p.files, p.pkg, p.info)
	if err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s on %s: %v", a.Name, p.pkg.Path(), err)
	}
	return pass.Diagnostics()
}

// loaded is one type-checked package.
type loaded struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// Loader type-checks packages from source, each once.
type Loader struct {
	root, prefix string
	fset         *token.FileSet
	std          types.Importer
	cache        map[string]*loaded
}

// NewLoader returns a loader that reads an import path beginning with
// prefix from the directory under root named by the rest of the path,
// when that directory exists, and any other import path from the
// standard library. A module's loader has the module path and a slash as
// prefix; the fixture loader has none.
func NewLoader(root, prefix string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		root:   root,
		prefix: prefix,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		cache:  map[string]*loaded{},
	}
}

// dir returns the directory the loader reads path from, or "" when path
// is left to the standard library.
func (ld *Loader) dir(path string) string {
	rel, ok := strings.CutPrefix(path, ld.prefix)
	if !ok {
		return ""
	}
	dir := filepath.Join(ld.root, rel)
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return ""
	}
	return dir
}

// Import implements types.Importer.
func (ld *Loader) Import(path string) (*types.Package, error) {
	if ld.dir(path) == "" {
		return ld.std.Import(path)
	}
	p, err := ld.loadErr(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (ld *Loader) load(t *testing.T, path string) *loaded {
	t.Helper()
	p, err := ld.loadErr(path)
	if err != nil {
		t.Fatalf("loading %s: %v", path, err)
	}
	return p
}

func (ld *Loader) loadErr(path string) (*loaded, error) {
	if p, ok := ld.cache[path]; ok {
		return p, nil
	}
	dir := ld.dir(path)
	if dir == "" {
		return nil, fmt.Errorf("no directory for %s under %s", path, ld.root)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking: %w", err)
	}
	p := &loaded{files: files, pkg: pkg, info: info}
	ld.cache[path] = p
	return p, nil
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// check compares diagnostics against the fixtures' `// want` comments.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range splitQuoted(t, m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i].line < wants[j].line })
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(w.file), w.line, w.raw)
		}
	}
}

// splitQuoted parses the `"re1" "re2"` tail of a want comment.
func splitQuoted(t *testing.T, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' {
			t.Fatalf("malformed want expectation: %q", s)
		}
		end := strings.Index(s[1:], `"`)
		if end < 0 {
			t.Fatalf("unterminated want pattern: %q", s)
		}
		out = append(out, s[1:1+end])
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}
