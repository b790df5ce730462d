// Command partlint is the driver for the repository's static analysis
// suite (see internal/analysis and DESIGN.md §10). It speaks the `go vet
// -vettool` protocol, standing in for x/tools' unitchecker in this
// hermetic build:
//
//   - `partlint -V=full` prints a version line derived from the binary's
//     own content hash, so the go command's vet cache invalidates when
//     the analyzers change;
//   - `partlint -flags` prints the tool's flag schema (none);
//   - `partlint <vet.cfg>` type-checks one package unit from the export
//     data the go command prepared, runs the suite, writes the unit's
//     facts to VetxOutput, and prints diagnostics to stderr with a
//     non-zero exit if any fire.
//
// Cross-package facts (detertaint's function summaries) travel through
// the vetx files as JSON keyed by analyzer name, mirroring how
// unitchecker uses gob-encoded fact files.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/registry"
)

// vetConfig mirrors the JSON the go command writes to vet.cfg for each
// package unit (cmd/go/internal/work's vetConfig).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
	GoVersion                 string
}

// jsonDiag is the machine-readable diagnostic record printed in JSON
// mode, one object per line (JSON Lines).
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Waived   bool   `json:"waived"`
}

func main() {
	// `go vet -vettool` offers no way to pass tool flags through, so JSON
	// mode is an environment switch for that path; the -json flag covers
	// direct invocations on a vet.cfg.
	jsonMode := os.Getenv("PARTLINT_JSON") == "1"
	args := os.Args[1:]
	rest := args[:0:0]
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			fmt.Printf("partlint version devel buildID=%s\n", selfHash())
			return
		case a == "-flags" || a == "--flags":
			fmt.Println("[]")
			return
		case a == "-json" || a == "--json":
			jsonMode = true
		default:
			rest = append(rest, a)
		}
	}
	args = rest
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintln(os.Stderr, "usage: partlint [-V=full | -flags | [-json] vet.cfg]")
		fmt.Fprintln(os.Stderr, "partlint is a go vet tool; run it via: go vet -vettool=$(command -v partlint) ./...")
		os.Exit(2)
	}
	diags, err := checkUnit(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "partlint: %v\n", err)
		os.Exit(1)
	}
	failing := 0
	for _, d := range diags {
		if !d.Waived {
			failing++
		}
	}
	if jsonMode {
		// JSON mode reports waived findings too (flagged), so dashboards
		// can track the waiver population; only non-waived ones fail.
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			enc.Encode(jsonDiag{File: d.Pos.Filename, Line: d.Pos.Line, Analyzer: d.Analyzer, Message: d.Message, Waived: d.Waived})
		}
	} else {
		for _, d := range diags {
			if !d.Waived {
				fmt.Fprintf(os.Stderr, "%s:%d:%d: %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
			}
		}
	}
	if failing > 0 {
		os.Exit(2)
	}
}

// selfHash hashes the running executable; the go command treats the
// -V=full output as the tool's identity for vet result caching.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

func checkUnit(cfgPath string) ([]analysis.Diagnostic, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", cfgPath, err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, writeVetx(cfg.VetxOutput, nil)
			}
			return nil, err
		}
		files = append(files, f)
	}

	pkg, info, err := typeCheck(&cfg, fset, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, writeVetx(cfg.VetxOutput, nil)
		}
		return nil, fmt.Errorf("type-checking %s: %w", cfg.ImportPath, err)
	}

	depFacts, err := readDepFacts(&cfg)
	if err != nil {
		return nil, err
	}

	var diags []analysis.Diagnostic
	exported := map[string]analysis.ImportFacts{}
	for _, c := range registry.Checks() {
		if !c.Applies(cfg.ImportPath) {
			continue
		}
		pass := analysis.NewPass(c.Analyzer, fset, files, pkg, info, cfg.ImportPath, depFacts[c.Analyzer.Name])
		// Every pass sees the full fact table so waiverhygiene can replay
		// its siblings with the facts they really ran under.
		pass.AllDepFacts = depFacts
		if err := c.Analyzer.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", c.Analyzer.Name, cfg.ImportPath, err)
		}
		if pass.ExportFacts != nil {
			exported[c.Analyzer.Name] = *pass.ExportFacts
		}
		if !cfg.VetxOnly {
			diags = append(diags, pass.AllDiagnostics()...)
		}
	}
	if err := writeVetx(cfg.VetxOutput, exported); err != nil {
		return nil, err
	}
	return diags, nil
}

// typeCheck loads the unit from source against the export data the go
// command prepared for its dependencies.
func typeCheck(cfg *vetConfig, fset *token.FileSet, files []*ast.File) (*types.Package, *types.Info, error) {
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if path == "unsafe" {
				return types.Unsafe, nil
			}
			if mapped, ok := cfg.ImportMap[path]; ok {
				path = mapped
			}
			return compilerImporter.Import(path)
		}),
	}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// readDepFacts loads the dependencies' vetx files into per-analyzer fact
// maps keyed by dependency import path.
func readDepFacts(cfg *vetConfig) (map[string]map[string]analysis.ImportFacts, error) {
	out := map[string]map[string]analysis.ImportFacts{}
	for dep, file := range cfg.PackageVetx {
		data, err := os.ReadFile(file)
		if err != nil {
			// A dependency outside the checked set has no facts; that is
			// not an error for this suite.
			continue
		}
		var perAnalyzer map[string]analysis.ImportFacts
		if err := json.Unmarshal(data, &perAnalyzer); err != nil {
			return nil, fmt.Errorf("parsing facts of %s: %w", dep, err)
		}
		for name, facts := range perAnalyzer {
			m := out[name]
			if m == nil {
				m = map[string]analysis.ImportFacts{}
				out[name] = m
			}
			m[dep] = facts
		}
	}
	return out, nil
}

// writeVetx persists this unit's facts. The go command requires the file
// to exist even when empty.
func writeVetx(path string, exported map[string]analysis.ImportFacts) error {
	if path == "" {
		return nil
	}
	if exported == nil {
		exported = map[string]analysis.ImportFacts{}
	}
	data, err := json.Marshal(exported)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}
