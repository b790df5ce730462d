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
//     data the go command prepared, runs the suite, and prints
//     diagnostics to stderr with a non-zero exit if any fire.
//
// Every analyzer reports within one package, so no facts cross package
// boundaries; partlint still writes the empty VetxOutput file the go
// command expects of every unit.
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
// package unit (cmd/go/internal/work's vetConfig), less the fields
// partlint does not read.
type vetConfig struct {
	Compiler                  string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
	GoVersion                 string
}

func main() {
	args := os.Args[1:]
	if len(args) == 1 {
		switch args[0] {
		case "-V=full", "--V=full":
			fmt.Printf("partlint version devel buildID=%s\n", selfHash())
			return
		case "-flags", "--flags":
			fmt.Println("[]")
			return
		}
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintln(os.Stderr, "usage: partlint [-V=full | -flags | vet.cfg]")
		fmt.Fprintln(os.Stderr, "partlint is a go vet tool; run it via: go vet -vettool=$(command -v partlint) ./...")
		os.Exit(2)
	}
	diags, err := checkUnit(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "partlint: %v\n", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
	}
	if len(diags) > 0 {
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
	// No analyzer exports facts, so a unit the go command checks only for
	// its dependents' sake needs nothing but the empty fact file.
	if err := writeVetx(cfg.VetxOutput); err != nil || cfg.VetxOnly {
		return nil, err
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, err
		}
		files = append(files, f)
	}

	pkg, info, err := typeCheck(&cfg, fset, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, fmt.Errorf("type-checking %s: %w", cfg.ImportPath, err)
	}

	var diags []analysis.Diagnostic
	for _, c := range registry.Checks() {
		if !c.Applies(cfg.ImportPath) {
			continue
		}
		pass := analysis.NewPass(fset, files, pkg, info)
		if err := c.Analyzer.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", c.Analyzer.Name, cfg.ImportPath, err)
		}
		diags = append(diags, pass.Diagnostics()...)
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

// writeVetx writes the unit's (empty) fact file. The go command requires
// the file to exist.
func writeVetx(path string) error {
	if path == "" {
		return nil
	}
	return os.WriteFile(path, []byte("{}"), 0o666)
}
