// Package detertaint keeps the simulation bit-reproducible. The sweep
// harness compares serial, parallel and sharded passes byte-for-byte, and
// the committed tables promise that regenerating them is deterministic:
// a run must be a pure function of its configuration. Every rule reports
// at the defect's site, inside one function.
//
// Three lexical bans forbid the sources: importing math/rand (use a
// locally seeded generator), calling the wall-clock functions of package
// time (wall time is injected at the CLI boundary; virtual time comes
// from sim.Proc), and acting in map order. Inside a map range or a
// sync.Map.Range callback, iteration order is random per run, so the
// body may call only builtins, type conversions and Sprint*, may assign
// no variable declared outside the loop, and may return only constants.
// One collecting shape is allowed: `s = append(s, k)` when the statement
// right after the loop sorts s. A value born in any of these places is
// reported where it is born, so it needs no tracking to where it lands.
//
// A past ingress bug shaped the map-order ban: it emitted flow grants
// while ranging a map, the sink two helper hops down, and the ban flags
// the call at the loop, however deep the sink hides. Scheduling on one
// engine at a time read from another engine's clock, the shape of a past
// completion bug, is left to the sharded differentials, which compare
// sharded runs with serial ones under the race detector.
package detertaint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"repro/internal/analysis"
)

// Analyzer bans nondeterminism sources in sim-reachable code.
var Analyzer = &analysis.Analyzer{
	Name: "detertaint",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		checkBans(pass, f)
	}
	return nil
}

// bannedTimeFuncs are the package-level time functions that read or
// depend on the wall clock. time.Duration arithmetic and time.Time
// values passed in from the boundary remain fine.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// checkBans applies the three lexical bans to one file: math/rand
// imports, wall-clock calls, and actions taken in map order.
func checkBans(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path == "math/rand" || path == "math/rand/v2" {
			pass.Reportf(imp.Pos(), "import of %s in a sim-reachable package: use a locally seeded generator so runs are reproducible", path)
		}
	}
	next := nextStmts(f)
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			checkTimeCall(pass, call)
		}
		if body, over := orderedBody(pass, n); body != nil {
			checkOrdered(pass, n, body, over, sortedBy(pass, next[n]))
		}
		return true
	})
}

// nextStmts maps each statement to the one after it in its block. A
// sync.Map.Range call is keyed by the call, the node orderedBody sees.
func nextStmts(f *ast.File) map[ast.Node]ast.Stmt {
	next := map[ast.Node]ast.Stmt{}
	ast.Inspect(f, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		}
		for i := 0; i+1 < len(list); i++ {
			var s ast.Node = list[i]
			if l, ok := s.(*ast.LabeledStmt); ok {
				s = l.Stmt
			}
			if e, ok := s.(*ast.ExprStmt); ok {
				s = e.X
			}
			next[s] = list[i+1]
		}
		return true
	})
	return next
}

// orderedBody returns the body n runs in map order — a map range's body
// or a sync.Map.Range callback — and what it ranges over, or nil.
func orderedBody(pass *analysis.Pass, n ast.Node) (*ast.BlockStmt, string) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		if t := pass.TypesInfo.TypeOf(n.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return n.Body, "a map"
			}
		}
	case *ast.CallExpr:
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Range" && len(n.Args) == 1 && isSyncMap(pass, sel.X) {
			if lit, ok := n.Args[0].(*ast.FuncLit); ok {
				return lit.Body, "a sync.Map"
			}
		}
	}
	return nil, ""
}

// checkTimeCall flags calls to the banned time package functions.
func checkTimeCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !bannedTimeFuncs[sel.Sel.Name] {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "time" {
		return
	}
	pass.Reportf(call.Pos(), "time.%s in a sim-reachable package: wall time must be injected at the CLI boundary (virtual time comes from sim.Proc)", sel.Sel.Name)
}

// checkOrdered flags what lets map order out of the loop node: every call
// except builtins, type conversions and Sprint* formatting — whatever the
// callee does, it does in nondeterministic order; the ingress-ordering
// bug emitted perfectly deterministic values in map order — every
// assignment to a variable declared outside the loop, unless it appends
// to the slice sorted is, and every return of a non-constant value.
// Closures are walked too, since the loop body runs per iteration either
// way, but their returns are their own. A nested ordered body is left to
// its own check, so nothing is flagged twice.
func checkOrdered(pass *analysis.Pass, loop ast.Node, body *ast.BlockStmt, over string, sorted types.Object) {
	outer := func(e ast.Expr) types.Object {
		v, ok := rootObject(pass, e).(*types.Var)
		if !ok || v.Name() == "_" || (v.Pos() >= loop.Pos() && v.Pos() < loop.End()) {
			return nil
		}
		return v
	}
	var visit func(returns bool) func(ast.Node) bool
	visit = func(returns bool) func(ast.Node) bool {
		return func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				ast.Inspect(n.Body, visit(false))
				return false
			case *ast.CallExpr:
				if name, ordered := orderedCallee(pass, n); ordered {
					pass.Reportf(n.Pos(), "call to %s while ranging over %s: iteration order is nondeterministic; collect and sort keys first", name, over)
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE || collects(pass, n, sorted) {
					break
				}
				for _, lhs := range n.Lhs {
					if v := outer(lhs); v != nil {
						pass.Reportf(n.Pos(), "assignment to %s while ranging over %s: the result depends on iteration order; collect keys, sort them right after the loop, then fold", v.Name(), over)
					}
				}
			case *ast.IncDecStmt:
				if v := outer(n.X); v != nil {
					pass.Reportf(n.Pos(), "assignment to %s while ranging over %s: the result depends on iteration order; collect keys, sort them right after the loop, then fold", v.Name(), over)
				}
			case *ast.ReturnStmt:
				if !returns {
					break
				}
				for _, r := range n.Results {
					if tv := pass.TypesInfo.Types[r]; tv.Value == nil && !tv.IsNil() {
						pass.Reportf(r.Pos(), "return of a non-constant value while ranging over %s: which entry is returned depends on iteration order", over)
					}
				}
			}
			inner, _ := orderedBody(pass, n)
			return inner == nil
		}
	}
	ast.Inspect(body, visit(true))
}

// collects reports whether as is `s = append(s, ...)` for the slice the
// statement after the loop sorts.
func collects(pass *analysis.Pass, as *ast.AssignStmt, sorted types.Object) bool {
	if sorted == nil || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if _, builtin := pass.TypesInfo.Uses[fn].(*types.Builtin); !builtin {
		return false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	arg, ok2 := call.Args[0].(*ast.Ident)
	return ok && ok2 && pass.TypesInfo.Uses[lhs] == sorted && pass.TypesInfo.Uses[arg] == sorted
}

// sortedBy returns the variable s sorts in place, or nil.
func sortedBy(pass *analysis.Pass, s ast.Stmt) types.Object {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 || !isSortCall(pass, call) {
		return nil
	}
	return rootObject(pass, call.Args[0])
}

// isSortCall recognizes the sort/slices package in-place sorters.
func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	switch pkgName.Imported().Path() {
	case "sort":
		switch sel.Sel.Name {
		case "Slice", "SliceStable", "Sort", "Stable", "Strings", "Ints", "Float64s":
			return true
		}
	case "slices":
		switch sel.Sel.Name {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}

// orderedCallee names the callee of a call made in map order, reporting
// false for the calls that act on nothing outside the loop: builtins,
// type conversions and Sprint* formatting.
func orderedCallee(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		switch pass.TypesInfo.Uses[fn].(type) {
		case *types.Builtin, *types.TypeName:
			return "", false
		}
		return fn.Name, true
	case *ast.SelectorExpr:
		switch fn.Sel.Name {
		case "Sprintf", "Sprint", "Sprintln":
			return "", false
		}
		return fn.Sel.Name, true
	}
	return "", false
}

func isSyncMap(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Map" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync"
}

// rootObject walks to the base identifier of an lvalue-ish expression.
func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[x]; obj != nil {
				return obj
			}
			return pass.TypesInfo.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}
