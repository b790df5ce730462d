package analysis

// This file is the package-level call graph the interprocedural analyzers
// share: per-function //partib:role annotation parsing, call-site
// resolution to same-package declarations or cross-package fact keys, and
// depth-bounded reachability. Cross-package edges do not carry ASTs —
// callees in other packages are summarized by the FuncFact entries their
// package exported through the vetx channel, so the graph composes
// bottom-up over the import DAG.

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnnotRole declares shard-protocol roles: "//partib:role producer"
// (comma-separated list), alone on a line of the function's doc comment.
// See the shardsafety analyzer.
const AnnotRole = "//partib:role"

// FuncInfo is one function or method declaration with its declared
// roles.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Obj  types.Object
	// Roles lists the declared //partib:role names (nil when
	// unannotated; roles may then be inherited from callers).
	Roles []string
	// Key is the cross-package fact key ("Func" or "Type.Method") when
	// the function is addressable from other packages, else "".
	Key string
}

// Callee is one resolved call site.
type Callee struct {
	Call *ast.CallExpr
	// Local is the same-package declaration, when the callee resolves to
	// one.
	Local *FuncInfo
	// PkgPath and Key identify a cross-package callee for fact lookup
	// (empty for builtins, dynamic calls, and local callees).
	PkgPath string
	Key     string
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
			info := &FuncInfo{Decl: fd, Obj: obj, Key: exportKey(fd)}
			info.Roles = parseRoles(fd)
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
		if !strings.HasPrefix(text, AnnotRole+" ") {
			continue
		}
		for _, r := range strings.Split(strings.TrimSpace(strings.TrimPrefix(text, AnnotRole)), ",") {
			if r = strings.TrimSpace(r); r != "" {
				roles = append(roles, r)
			}
		}
	}
	return
}

// exportKey names a declaration for cross-package facts: "Func" for
// package-level functions, "Type.Method" for methods on a named type.
// Unexported functions and methods (or methods of unexported types) are
// unreachable from other packages and get no key.
func exportKey(fd *ast.FuncDecl) string {
	if !fd.Name.IsExported() {
		return ""
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers (IndexExpr) and exotic shapes are skipped.
	id, ok := t.(*ast.Ident)
	if !ok || !id.IsExported() {
		return ""
	}
	return id.Name + "." + fd.Name.Name
}

// FactKeyOf names a cross-package *types.Func the way exportKey names its
// declaration, so callers can look it up in the callee package's facts.
func FactKeyOf(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		named, ok := rt.(*types.Named)
		if !ok {
			return ""
		}
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
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

// Callees resolves every call site in fd's body: same-package calls to
// their declarations, cross-package static calls to (package path, fact
// key) pairs. Function literals are walked too — a closure runs in its
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
			if c, ok := g.resolve(call); ok {
				out = append(out, c)
			}
			return true
		})
	}
	g.callees[fd] = out
	return out
}

// resolve maps one call expression to a callee.
func (g *CallGraph) resolve(call *ast.CallExpr) (Callee, bool) {
	var id *ast.Ident
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return Callee{}, false
	}
	obj := g.pass.TypesInfo.Uses[id]
	if obj == nil {
		return Callee{}, false
	}
	if info := g.funcs[obj]; info != nil {
		return Callee{Call: call, Local: info}, true
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg() == g.pass.Pkg {
		return Callee{}, false
	}
	key := FactKeyOf(fn)
	if key == "" {
		return Callee{}, false
	}
	return Callee{Call: call, PkgPath: fn.Pkg().Path(), Key: key}, true
}

// DepFunc looks up a cross-package callee's summary in the pass's
// dependency facts.
func (g *CallGraph) DepFunc(pkgPath, key string) (FuncFact, bool) {
	facts, ok := g.pass.DepFacts[pkgPath]
	if !ok || facts.Funcs == nil {
		return FuncFact{}, false
	}
	f, ok := facts.Funcs[key]
	return f, ok
}
