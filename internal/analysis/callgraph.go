package analysis

// This file is the package-level call graph the analyzers that follow
// calls share: per-function //partib:role annotation parsing, call-site
// resolution to same-package declarations, and source-order enumeration.
// It stops at the package boundary. shardsafety inherits roles along its
// edges; callbackblock walks it from each registered completion handler.

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

// Callee is one call site resolved to a same-package declaration.
type Callee struct {
	Call  *ast.CallExpr
	Local *FuncInfo
}

// CallGraph indexes a package's function declarations and resolves call
// sites.
type CallGraph struct {
	pass  *Pass
	funcs map[types.Object]*FuncInfo
	// byDecl finds the info for a declaration (reverse of funcs).
	byDecl map[*ast.FuncDecl]*FuncInfo
	// callees caches per-declaration call-site resolution.
	callees map[*ast.FuncDecl][]Callee
}

// BuildCallGraph indexes every function and method declaration in the
// pass's files (test files excluded) with their declared roles.
func BuildCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{
		pass:    pass,
		funcs:   map[types.Object]*FuncInfo{},
		byDecl:  map[*ast.FuncDecl]*FuncInfo{},
		callees: map[*ast.FuncDecl][]Callee{},
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
			g.funcs[obj] = info
			g.byDecl[fd] = info
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

// Roots returns the declarations carrying the given predicate, in source
// order.
func (g *CallGraph) Roots(keep func(*FuncInfo) bool) []*FuncInfo {
	var out []*FuncInfo
	for _, f := range g.pass.Files {
		if g.pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if info := g.byDecl[fd]; info != nil && keep(info) {
				out = append(out, info)
			}
		}
	}
	return out
}

// InfoFor returns the FuncInfo of a types object, when it names a
// same-package declaration.
func (g *CallGraph) InfoFor(obj types.Object) *FuncInfo { return g.funcs[obj] }

// Callees resolves every same-package call site in fd's body to its
// declaration. Function literals are walked too — a closure runs in its
// enclosing function's context for reachability purposes. Results are
// cached.
func (g *CallGraph) Callees(fd *ast.FuncDecl) []Callee {
	if out, ok := g.callees[fd]; ok {
		return out
	}
	var out []Callee
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
			if info := g.funcs[g.pass.TypesInfo.Uses[id]]; info != nil {
				out = append(out, Callee{Call: call, Local: info})
			}
			return true
		})
	}
	g.callees[fd] = out
	return out
}
