// Package analysis is a dependency-free substitute for the parts of
// golang.org/x/tools/go/analysis this repository's static checkers need.
// The toolchain here is hermetic (no module downloads), so the suite is
// built on the standard library's go/ast, go/types, and go/importer only:
// an Analyzer is a named Run function over a type-checked package, and a
// Pass carries one package through it. The analysistest loader constructs
// passes and collects diagnostics, over fixtures and over the module's own
// packages alike, and never passes an analyzer a _test.go file.
//
// The deliberate differences from x/tools are small: every rule reports
// at the defect's site within one package, so there are no cross-package
// facts, and there is no suppression comment — a finding is fixed, not
// waived.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Run executes the check, reporting findings through pass.Report.
	Run func(pass *Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// NewPass builds a pass over a type-checked package.
func NewPass(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Pass {
	return &Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: p.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the findings in file/line order.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.Slice(p.diags, func(i, j int) bool {
		a, b := p.diags[i].Pos, p.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return p.diags
}
