// Package analysis is a dependency-free substitute for the parts of
// golang.org/x/tools/go/analysis this repository's static checkers need.
// The toolchain here is hermetic (no module downloads), so the suite is
// built on the standard library's go/ast, go/types, and go/importer only:
// an Analyzer is a named Run function over a type-checked package, a Pass
// carries the package plus cross-package facts, and drivers (cmd/partlint
// for `go vet -vettool`, the analysistest harness for fixtures) construct
// passes and collect diagnostics.
//
// The deliberate differences from x/tools are small: facts are a single
// JSON-serializable ImportFacts value per package (the interprocedural
// function summaries), and suppression is a line-level
// `//partlint:allow <analyzer>` comment instead of //lint:ignore
// directives.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and waiver comments.
	Name string
	// Doc is the one-paragraph description printed by partlint's usage.
	Doc string
	// Run executes the check, reporting findings through pass.Report.
	Run func(pass *Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Message string
	// Analyzer names the check that produced the finding (set by Reportf
	// from the pass's analyzer).
	Analyzer string
	// Waived marks findings suppressed by a `//partlint:allow` comment.
	// Diagnostics() drops them; AllDiagnostics() keeps them, for the JSON
	// output mode and the waiverhygiene analyzer.
	Waived bool
}

// FuncFact is the cross-package summary of one exported function or
// method, computed bottom-up over the import DAG by the interprocedural
// analyzers. Methods are keyed "Type.Method", plain functions "Func".
type FuncFact struct {
	// Taints records that the function's results carry nondeterminism
	// (wall-clock reads, math/rand, map-iteration order) picked up inside
	// its body or its callees. TaintWhat names the source.
	Taints    bool   `json:"taints,omitempty"`
	TaintWhat string `json:"taintWhat,omitempty"`
	// Sinks records that calling the function (transitively) reaches a
	// scheduling or emission sink, so invoking it under nondeterministic
	// iteration order is an ordered emission. SinkParams lists parameter
	// indexes whose values flow into a sink argument.
	Sinks      bool  `json:"sinks,omitempty"`
	SinkParams []int `json:"sinkParams,omitempty"`
}

// ImportFacts is the per-package fact an analyzer exports to its
// dependents, serialized as JSON into the vetx files `go vet` threads
// between dependent packages. The interprocedural analyzer (detertaint)
// fills Funcs.
type ImportFacts struct {
	// Funcs maps exported function keys ("Func" or "Type.Method") to
	// their interprocedural summaries.
	Funcs map[string]FuncFact `json:"funcs,omitempty"`
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// ImportPath is the package's source-level import path (the path the
	// scope rules match against).
	ImportPath string

	// DepFacts holds the ImportFacts of dependency packages for this
	// pass's own analyzer, keyed by source-level import path; absent
	// entries mean the dependency exported no facts.
	DepFacts map[string]ImportFacts

	// AllDepFacts holds every analyzer's dependency facts, keyed by
	// analyzer name then dependency import path. Drivers populate it so
	// waiverhygiene can replay sibling analyzers with their real facts;
	// DepFacts is AllDepFacts[Analyzer.Name] when both are set.
	AllDepFacts map[string]map[string]ImportFacts

	// ExportFacts, when set by the analyzer, is persisted by the driver
	// for dependent packages' passes.
	ExportFacts *ImportFacts

	// diags collects findings; waived lines are kept but marked, so the
	// default Diagnostics() drops them while AllDiagnostics() (JSON mode,
	// waiverhygiene) sees everything.
	diags  []Diagnostic
	waived map[string]map[int]bool // filename -> line -> waived
}

// NewPass builds a pass over a type-checked package, pre-indexing
// `//partlint:allow <name>` waiver comments for the analyzer.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, importPath string, depFacts map[string]ImportFacts) *Pass {
	p := &Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
		ImportPath: importPath,
		DepFacts:   depFacts,
		waived:     map[string]map[int]bool{},
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "partlint:allow") {
					continue
				}
				// Anything after the analyzer name is the rationale.
				fields := strings.Fields(strings.TrimPrefix(text, "partlint:allow"))
				if len(fields) == 0 || (fields[0] != a.Name && fields[0] != "all") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := p.waived[pos.Filename]
				if m == nil {
					m = map[int]bool{}
					p.waived[pos.Filename] = m
				}
				// A waiver covers its own line and the next one, so it
				// works both as a trailing comment and on the line above.
				m[pos.Line] = true
				m[pos.Line+1] = true
			}
		}
	}
	return p
}

// Reportf records a finding at pos. A `//partlint:allow` waiver for this
// analyzer on the line marks the finding waived instead of dropping it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	d := Diagnostic{Pos: position, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name}
	if m := p.waived[position.Filename]; m != nil && m[position.Line] {
		d.Waived = true
	}
	p.diags = append(p.diags, d)
}

// ReportfUnwaivable records a finding that `//partlint:allow` cannot
// suppress. waiverhygiene reports through it so a stale waiver cannot
// hide the very diagnostic that flags it.
func (p *Pass) ReportfUnwaivable(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: p.Fset.Position(pos), Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// WaivedAt reports whether a finding at pos would be suppressed by a
// `//partlint:allow` waiver for this analyzer. Interprocedural summary
// builders use it to keep waived taint sites out of the facts they
// export — a waiver accepts the site for callers too.
func (p *Pass) WaivedAt(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	m := p.waived[position.Filename]
	return m != nil && m[position.Line]
}

// Diagnostics returns the non-waived findings in file/line order.
func (p *Pass) Diagnostics() []Diagnostic {
	p.sortDiags()
	out := p.diags[:0:0]
	for _, d := range p.diags {
		if !d.Waived {
			out = append(out, d)
		}
	}
	return out
}

// AllDiagnostics returns every finding, waived ones included, in
// file/line order.
func (p *Pass) AllDiagnostics() []Diagnostic {
	p.sortDiags()
	return p.diags
}

func (p *Pass) sortDiags() {
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
}

// WaiverSite is one `//partlint:allow` comment in the package's files.
type WaiverSite struct {
	File string
	Line int
	// Analyzer is the name the waiver targets ("all" covers the suite).
	Analyzer string
	Pos      token.Pos
}

// Waivers lists every `//partlint:allow` comment in the pass's non-test
// files, regardless of which analyzer it names. waiverhygiene matches
// them against replayed sibling diagnostics to find stale waivers.
func (p *Pass) Waivers() []WaiverSite {
	var out []WaiverSite
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "partlint:allow") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "partlint:allow"))
				name := ""
				if len(fields) > 0 {
					name = fields[0]
				}
				pos := p.Fset.Position(c.Pos())
				out = append(out, WaiverSite{File: pos.Filename, Line: pos.Line, Analyzer: name, Pos: c.Pos()})
			}
		}
	}
	return out
}

// IsTestFile reports whether the file at pos is a _test.go file. The
// suite's invariants target production code; tests are free to panic
// and block.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}
