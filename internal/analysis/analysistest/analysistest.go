// Package analysistest is a minimal fixture harness for the partlint
// analyzers, standing in for golang.org/x/tools/go/analysis/analysistest
// (unavailable in this hermetic build). Fixture packages live under the
// calling package's testdata/src/<path>; expectations are `// want "re"`
// comments on the offending lines. Standard-library imports are
// type-checked from source (importer "source"); imports that resolve
// inside testdata/src shadow real packages, so fixtures can pose as
// repro/internal/... packages with stub dependencies.
package analysistest

import (
	"fmt"
	"go/ast"
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
	ld := newLoader(t)
	for _, pkg := range pkgs {
		t.Run(strings.ReplaceAll(pkg, "/", "_"), func(t *testing.T) {
			t.Helper()
			p := ld.load(t, pkg)
			pass := analysis.NewPass(ld.fset, p.files, p.pkg, p.info)
			if err := a.Run(pass); err != nil {
				t.Fatalf("analyzer %s: %v", a.Name, err)
			}
			check(t, ld.fset, p.files, pass.Diagnostics())
		})
	}
}

// loaded is one type-checked fixture package.
type loaded struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type loader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*loaded
}

func newLoader(t *testing.T) *loader {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	return &loader{
		root:  root,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		cache: map[string]*loaded{},
	}
}

// Import implements types.Importer: testdata-local packages shadow
// everything else; the rest comes from the standard library.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(ld.root, path); dirExists(dir) {
		p, err := ld.loadErr(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return ld.std.Import(path)
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

func (ld *loader) load(t *testing.T, path string) *loaded {
	t.Helper()
	p, err := ld.loadErr(path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	return p
}

func (ld *loader) loadErr(path string) (*loaded, error) {
	if p, ok := ld.cache[path]; ok {
		return p, nil
	}
	dir := filepath.Join(ld.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
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
