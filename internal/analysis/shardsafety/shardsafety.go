// Package shardsafety checks the shard runtime's cross-thread protocol
// shapes statically. The ShardSet protocol (DESIGN.md §11.1) is built on
// three load-bearing disciplines that the type system cannot see:
//
//   - Atomic words. Fields annotated `//partib:atomic` are shared across
//     workers and must only be touched atomically: sync/atomic-typed
//     fields through their methods (never copied or overwritten as
//     values), plain words only via &field passed to sync/atomic
//     functions.
//
//   - Role-guarded fields. Mailbox state is safe not because it is
//     locked but because each field is touched only from specific
//     protocol roles — the producing worker, the claiming consumer, or
//     the transition thread behind the finish barrier. A field annotated
//     `//partib:guard write=<roles> read=<roles>` may only be written or
//     read by functions whose role set (declared with `//partib:role`,
//     or inherited from callers through the call graph) intersects the
//     allowed set. Functions with no roles — constructors, tests, stats
//     queries — are unchecked: the guard governs the hop path.
//
//   - Claim gates. Bounded-CAS gates must reload their comparison value
//     inside the retry loop. The PR-7 claim-gate race hoisted the
//     atomic Load above the loop, so a failed CAS retried against a
//     stale value and could pass a gate that had already been reset;
//     the analyzer flags a CompareAndSwap whose expected-value operand
//     was loaded outside the innermost enclosing loop.
package shardsafety

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer enforces the shard runtime's annotated concurrency protocol.
var Analyzer = &analysis.Analyzer{
	Name: "shardsafety",
	Doc: "enforce //partib:atomic fields (sync/atomic access only), //partib:guard " +
		"role-restricted mailbox fields (roles declared with //partib:role or inherited " +
		"through the call graph), and reload-inside-loop CAS claim gates",
	Run: run,
}

// maxRoleDepth bounds role inheritance through un-annotated helpers, so
// a role reaches a function at most four calls below its declaration.
const maxRoleDepth = 4

// Field annotations.
const (
	annotAtomic = "//partib:atomic"
	annotGuard  = "//partib:guard"
)

// fieldAnnot is one annotated struct field.
type fieldAnnot struct {
	name   string
	atomic bool
	// write and read are the allowed role sets (nil when the field
	// carries no //partib:guard).
	write map[string]bool
	read  map[string]bool
}

func run(pass *analysis.Pass) error {
	fields := collectFieldAnnots(pass)
	g := analysis.BuildCallGraph(pass)
	roles := inheritRoles(pass, g)
	if len(fields) == 0 && !hasCAS(pass) {
		return nil
	}
	for _, fi := range g.Roots(func(*analysis.FuncInfo) bool { return true }) {
		checkFunc(pass, fi.Decl, fields, roles[fi.Decl])
	}
	return nil
}

// hasCAS cheaply pre-screens the package for CompareAndSwap calls so
// annotation-free packages skip the per-function walks.
func hasCAS(pass *analysis.Pass) bool {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			if sel, ok := n.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "CompareAndSwap") {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// collectFieldAnnots indexes //partib:atomic and //partib:guard struct
// field annotations by the field's types.Var.
func collectFieldAnnots(pass *analysis.Pass) map[*types.Var]*fieldAnnot {
	out := map[*types.Var]*fieldAnnot{}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				fa := parseFieldAnnot(field)
				if fa == nil {
					continue
				}
				for _, name := range field.Names {
					if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						a := *fa
						a.name = name.Name
						out[obj] = &a
					}
				}
			}
			return true
		})
	}
	return out
}

// parseFieldAnnot reads a field's doc and line comments for annotations.
func parseFieldAnnot(field *ast.Field) *fieldAnnot {
	var fa *fieldAnnot
	scan := func(cg *ast.CommentGroup) {
		if cg == nil {
			return
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			switch {
			case text == annotAtomic:
				if fa == nil {
					fa = &fieldAnnot{}
				}
				fa.atomic = true
			case strings.HasPrefix(text, annotGuard+" "):
				if fa == nil {
					fa = &fieldAnnot{}
				}
				for _, kv := range strings.Fields(strings.TrimPrefix(text, annotGuard+" ")) {
					key, val, ok := strings.Cut(kv, "=")
					if !ok {
						continue
					}
					set := map[string]bool{}
					for _, r := range strings.Split(val, ",") {
						if r = strings.TrimSpace(r); r != "" {
							set[r] = true
						}
					}
					switch key {
					case "write":
						fa.write = set
					case "read":
						fa.read = set
					}
				}
			}
		}
	}
	scan(field.Doc)
	scan(field.Comment)
	return fa
}

// inheritRoles computes each function's role set: declared //partib:role
// lists win; un-annotated functions inherit the union of their callers'
// roles, propagated maxRoleDepth hops through the local call graph.
func inheritRoles(pass *analysis.Pass, g *analysis.CallGraph) map[*ast.FuncDecl]map[string]bool {
	roles := map[*ast.FuncDecl]map[string]bool{}
	declared := map[*ast.FuncDecl]bool{}
	all := g.Roots(func(*analysis.FuncInfo) bool { return true })
	for _, fi := range all {
		if len(fi.Roles) > 0 {
			set := map[string]bool{}
			for _, r := range fi.Roles {
				set[r] = true
			}
			roles[fi.Decl] = set
			declared[fi.Decl] = true
		}
	}
	for hop := 0; hop < maxRoleDepth; hop++ {
		changed := false
		for _, fi := range all {
			rs := roles[fi.Decl]
			if len(rs) == 0 {
				continue
			}
			for _, c := range g.Callees(fi.Decl) {
				if c.Local == nil || declared[c.Local.Decl] {
					continue
				}
				dst := roles[c.Local.Decl]
				if dst == nil {
					dst = map[string]bool{}
					roles[c.Local.Decl] = dst
				}
				for r := range rs {
					if !dst[r] {
						dst[r] = true
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	return roles
}

// access classifies one occurrence of an annotated field.
type access int

const (
	accessRead access = iota
	accessWrite
	accessMethod     // s.f.Load() — method call on the field
	accessAddr       // &s.f passed somewhere ordinary
	accessAtomicAddr // &s.f passed to a sync/atomic function
)

// checkFunc walks one function body for annotated-field accesses and CAS
// gates.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, fields map[*types.Var]*fieldAnnot, funcRoles map[string]bool) {
	if fd.Body == nil {
		return
	}
	parents := parentMap(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			obj, ok := pass.TypesInfo.Uses[n.Sel].(*types.Var)
			if !ok {
				return true
			}
			fa, ok := fields[obj]
			if !ok {
				return true
			}
			kind := classify(pass, parents, n)
			checkFieldAccess(pass, n, fa, kind, funcRoles)
		case *ast.CallExpr:
			checkCASGate(pass, fd, parents, n)
		}
		return true
	})
}

// checkFieldAccess applies the atomic and guard rules to one access.
func checkFieldAccess(pass *analysis.Pass, sel *ast.SelectorExpr, fa *fieldAnnot, kind access, funcRoles map[string]bool) {
	if fa.atomic {
		if isAtomicValueType(pass.TypesInfo.TypeOf(sel)) {
			switch kind {
			case accessMethod, accessAddr, accessAtomicAddr:
				// Methods and pointers preserve atomicity.
			case accessWrite:
				pass.Reportf(sel.Pos(), "overwrite of //partib:atomic field %s: atomic values must not be reassigned; use Store", fa.name)
			default:
				pass.Reportf(sel.Pos(), "copy of //partib:atomic field %s by value: the copy is not the shared word; use its Load/Store methods", fa.name)
			}
		} else if kind != accessAtomicAddr {
			pass.Reportf(sel.Pos(), "non-atomic access to //partib:atomic field %s: other workers touch it concurrently; use sync/atomic with &%s", fa.name, fa.name)
		}
	}
	if len(funcRoles) == 0 {
		return // constructors, stats, tests: outside the hop protocol
	}
	var allowed map[string]bool
	verb := "read of"
	switch kind {
	case accessWrite, accessAddr:
		allowed, verb = fa.write, "write to"
	default:
		allowed = fa.read
	}
	if allowed == nil || intersects(funcRoles, allowed) {
		return
	}
	pass.Reportf(sel.Pos(), "%s guarded field %s from role %s: //partib:guard allows %s %s (see DESIGN.md §11.1)",
		verb, fa.name, roleList(funcRoles), verb[:strings.Index(verb, " ")], roleList(allowed))
}

func intersects(a, b map[string]bool) bool {
	for r := range a {
		if b[r] {
			return true
		}
	}
	return false
}

func roleList(set map[string]bool) string {
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// classify determines how a field selector is used from its parents.
func classify(pass *analysis.Pass, parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) access {
	switch p := parents[sel].(type) {
	case *ast.SelectorExpr:
		if p.X == sel {
			if call, ok := parents[p].(*ast.CallExpr); ok && call.Fun == p {
				return accessMethod
			}
		}
		return accessRead
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			if call, ok := parents[p].(*ast.CallExpr); ok && isAtomicPkgCall(pass, call) {
				return accessAtomicAddr
			}
			return accessAddr
		}
		return accessRead
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if l == sel {
				return accessWrite
			}
		}
		return accessRead
	case *ast.IncDecStmt:
		return accessWrite
	case *ast.RangeStmt:
		if p.Key == sel || p.Value == sel {
			return accessWrite
		}
		return accessRead
	default:
		return accessRead
	}
}

// parentMap records each node's syntactic parent within body.
func parentMap(body *ast.BlockStmt) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// isAtomicValueType reports whether t is one of sync/atomic's value
// types (atomic.Int64, atomic.Bool, ...).
func isAtomicValueType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"
}

// isAtomicPkgCall reports whether call invokes a sync/atomic package
// function (atomic.LoadInt64, atomic.AddUint64, ...).
func isAtomicPkgCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pkgName.Imported().Path() == "sync/atomic"
}

// checkCASGate flags a CompareAndSwap whose expected-value operand was
// loaded outside the innermost enclosing retry loop — the PR-7
// claim-gate race: a failed CAS retries against a stale value and can
// pass a gate that has already been reset.
func checkCASGate(pass *analysis.Pass, fd *ast.FuncDecl, parents map[ast.Node]ast.Node, call *ast.CallExpr) {
	old := casExpected(pass, call)
	if old == nil {
		return
	}
	id, ok := old.(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	loop := enclosingLoopBody(parents, call)
	if loop == nil {
		return // single-shot CAS, no retry to go stale in
	}
	loadedOutside, assignedInside := false, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, l := range as.Lhs {
			lid, ok := l.(*ast.Ident)
			if !ok {
				continue
			}
			lobj := pass.TypesInfo.Defs[lid]
			if lobj == nil {
				lobj = pass.TypesInfo.Uses[lid]
			}
			if lobj != obj {
				continue
			}
			if as.Pos() >= loop.Pos() && as.End() <= loop.End() {
				assignedInside = true
			} else if i < len(as.Rhs) && containsAtomicLoad(pass, as.Rhs[i]) {
				loadedOutside = true
			} else if len(as.Rhs) == 1 && containsAtomicLoad(pass, as.Rhs[0]) {
				loadedOutside = true
			}
		}
		return true
	})
	if loadedOutside && !assignedInside {
		pass.Reportf(call.Pos(), "CompareAndSwap compares %s, which was loaded outside the retry loop: a failed CAS retries against a stale value (the PR-7 claim-gate race); reload %s inside the loop",
			id.Name, id.Name)
	}
}

// casExpected extracts the expected-value operand of a CAS: arg 0 of the
// sync/atomic value types' CompareAndSwap method, arg 1 of the package
// functions (CompareAndSwapInt64(&x, old, new)).
func casExpected(pass *analysis.Pass, call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "CompareAndSwap") {
		return nil
	}
	if isAtomicPkgCall(pass, call) {
		if len(call.Args) == 3 {
			return call.Args[1]
		}
		return nil
	}
	if isAtomicValueType(pass.TypesInfo.TypeOf(sel.X)) && len(call.Args) == 2 {
		return call.Args[0]
	}
	return nil
}

// enclosingLoopBody returns the body of the innermost for/range loop
// containing n, or nil.
func enclosingLoopBody(parents map[ast.Node]ast.Node, n ast.Node) *ast.BlockStmt {
	for p := parents[n]; p != nil; p = parents[p] {
		switch p := p.(type) {
		case *ast.ForStmt:
			return p.Body
		case *ast.RangeStmt:
			return p.Body
		case *ast.FuncLit:
			return nil // a closure's loop context is not this function's
		}
	}
	return nil
}

// containsAtomicLoad reports whether expr contains an atomic load: a
// .Load() method call or a sync/atomic Load* package call.
func containsAtomicLoad(pass *analysis.Pass, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name == "Load" || (strings.HasPrefix(sel.Sel.Name, "Load") && isAtomicPkgCall(pass, call)) {
			found = true
		}
		return !found
	})
	return found
}
