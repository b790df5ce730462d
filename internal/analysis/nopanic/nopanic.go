// Package nopanic forbids panic in the library packages that promised a
// typed-error surface. The partitioned module reports every failure —
// caller misuse, protocol violations, transport completions with error
// status — through the error taxonomy in internal/core/errors.go and its
// siblings; a panic would tear down the host application instead of
// surfacing through MPI-style error handling, so the analyzer keeps new
// ones from creeping back in after the migration.
package nopanic

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags calls to the panic builtin.
var Analyzer = &analysis.Analyzer{
	Name: "nopanic",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			// Only the builtin: a local function named panic is fine.
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			pass.Reportf(call.Pos(), "panic in a typed-error package: return one of the package's error values instead")
			return true
		})
	}
	return nil
}
