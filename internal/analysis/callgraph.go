package analysis

// This file is the package-level call graph: per-function //partib:role
// annotation parsing, call-site resolution to same-package declarations,
// and source-order enumeration. It stops at the package boundary.
// shardsafety inherits roles along its edges.

import (
	"go/ast"
	"go/types"
	"strings"
)

// annotRole declares shard-protocol roles: "//partib:role producer"
// (comma-separated list), alone on a line of the function's doc comment.
// See the shardsafety analyzer.
const annotRole = "//partib:role"

// FuncInfo is one function or method declaration with its declared
// roles.
type FuncInfo struct {
	Decl *ast.FuncDecl
	// Roles lists the declared //partib:role names (nil when
	// unannotated; roles may then be inherited from callers).
	Roles []string
}

// CallGraph indexes a package's function declarations and resolves call
// sites.
type CallGraph struct {
	pass *Pass
	// funcs lists the declarations in source order; byObj finds one by
	// its types object.
	funcs []*FuncInfo
	byObj map[types.Object]*FuncInfo
	// callees caches per-declaration call-site resolution.
	callees map[*ast.FuncDecl][]*FuncInfo
}

// BuildCallGraph indexes every function and method declaration in the
// pass's files (test files excluded) with their declared roles.
func BuildCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{
		pass:    pass,
		byObj:   map[types.Object]*FuncInfo{},
		callees: map[*ast.FuncDecl][]*FuncInfo{},
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			info := &FuncInfo{Decl: fd, Roles: parseRoles(fd)}
			g.funcs = append(g.funcs, info)
			g.byObj[obj] = info
		}
	}
	return g
}

// parseRoles reads the //partib:role lines of a doc comment.
func parseRoles(fd *ast.FuncDecl) (roles []string) {
	if fd.Doc == nil {
		return
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if !strings.HasPrefix(text, annotRole+" ") {
			continue
		}
		for _, r := range strings.Split(strings.TrimSpace(strings.TrimPrefix(text, annotRole)), ",") {
			if r = strings.TrimSpace(r); r != "" {
				roles = append(roles, r)
			}
		}
	}
	return
}

// Funcs returns the package's declarations in source order.
func (g *CallGraph) Funcs() []*FuncInfo { return g.funcs }

// Callees resolves every same-package call site in fd's body to its
// declaration, one entry per call site. Function literals are walked too
// — a closure runs in its enclosing function's context for reachability
// purposes. Results are cached.
func (g *CallGraph) Callees(fd *ast.FuncDecl) []*FuncInfo {
	if out, ok := g.callees[fd]; ok {
		return out
	}
	var out []*FuncInfo
	if fd.Body != nil {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				id = fn
			case *ast.SelectorExpr:
				id = fn.Sel
			default:
				return true
			}
			if info := g.byObj[g.pass.TypesInfo.Uses[id]]; info != nil {
				out = append(out, info)
			}
			return true
		})
	}
	g.callees[fd] = out
	return out
}
