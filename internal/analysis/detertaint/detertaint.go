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
// Two historical regressions shaped the rules. The PR-6 completion bug
// scheduled a responder-side event using the responder's clock on the
// requester's engine; the cross-engine rule flags a time read from one
// engine's Now flowing, within one function, into a same-engine
// scheduling method (scheduleCall, At, AtCall) of a different engine —
// Engine.Post and ShardSet.post stay legal because they are the
// sanctioned cross-engine path. The PR-8 ingress bug emitted flow grants
// while ranging a map, the sink two helper hops down; the map-order ban
// flags the call at the loop, however deep the sink hides.
package detertaint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"repro/internal/analysis"
)

// Analyzer bans nondeterminism sources in sim-reachable code and flags
// cross-engine clock transfer.
var Analyzer = &analysis.Analyzer{
	Name: "detertaint",
	Doc: "forbid math/rand, wall-clock reads, and calls, outer assignments and non-constant " +
		"returns made in map order; flag one engine's clock scheduled on another engine",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		checkBans(pass, f)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkCrossEngine(pass, fd)
			}
		}
	}
	return nil
}

// Lexical bans ----------------------------------------------------------

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

// Cross-engine rule -----------------------------------------------------

// sameClockMethods schedule on the receiver's own timeline, so a time
// read from a DIFFERENT engine's clock arriving here is the PR-6 bug.
// Post is exempt: it is the sanctioned cross-engine path.
var sameClockMethods = map[string]bool{
	"scheduleCall": true, "At": true, "AtCall": true,
}

// clock is one engine's Now read: the canonical object of a plain
// identifier receiver, or the field path ("c.req.eng") of a selector
// chain. name is the receiver as written, for diagnostics.
type clock struct {
	obj  types.Object
	path string
	name string
}

// clocks holds one function's flow-insensitive view: engine aliases
// (`e := t.eng`) and the engine clocks each local may carry.
type clocks struct {
	pass  *analysis.Pass
	alias map[types.Object]types.Object
	vars  map[types.Object][]clock
}

// checkCrossEngine flags a same-clock scheduling call on one engine whose
// time argument carries another engine's Now read — directly, or through
// locals assigned anywhere in the function.
func checkCrossEngine(pass *analysis.Pass, fd *ast.FuncDecl) {
	c := &clocks{pass: pass, alias: map[types.Object]types.Object{}, vars: map[types.Object][]clock{}}
	c.assigns(fd.Body, func(dst types.Object, rhs ast.Expr) bool {
		if id, ok := rhs.(*ast.Ident); ok && isEngineType(dst.Type()) {
			if src := pass.TypesInfo.Uses[id]; src != nil && src != dst {
				c.alias[dst] = src
			}
		}
		return false
	})
	for changed := true; changed; {
		changed = c.assigns(fd.Body, func(dst types.Object, rhs ast.Expr) bool {
			grew := false
			for _, ck := range c.in(rhs) {
				if !c.carries(dst, ck) {
					c.vars[dst] = append(c.vars[dst], ck)
					grew = true
				}
			}
			return grew
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !sameClockMethods[sel.Sel.Name] || !isEngineType(pass.TypesInfo.TypeOf(sel.X)) {
			return true
		}
		for _, arg := range call.Args {
			for _, ck := range c.in(arg) {
				if c.differs(ck, sel.X) {
					pass.Reportf(arg.Pos(), "schedules on engine %s at a time read from engine %s's clock: cross-engine time must flow through Engine.Post or ShardSet.post with pair lookahead added",
						types.ExprString(sel.X), ck.name)
					break
				}
			}
		}
		return true
	})
}

// assigns calls fn for every (identifier, value) pair assigned or
// declared in body, and reports whether any call returned true.
func (c *clocks) assigns(body *ast.BlockStmt, fn func(dst types.Object, rhs ast.Expr) bool) bool {
	changed := false
	pair := func(lhs, rhs []ast.Expr) {
		for i, l := range lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" || len(rhs) == 0 {
				continue
			}
			obj := c.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = c.pass.TypesInfo.Uses[id]
			}
			r := rhs[0]
			if len(rhs) == len(lhs) {
				r = rhs[i]
			}
			if obj != nil && fn(obj, r) {
				changed = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			pair(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			names := make([]ast.Expr, len(n.Names))
			for i, id := range n.Names {
				names[i] = id
			}
			pair(names, n.Values)
		}
		return true
	})
	return changed
}

// in lists the engine clocks e reads, directly or through locals.
// Closures are skipped: they run later, under their own schedule.
func (c *clocks) in(e ast.Expr) []clock {
	var out []clock
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if obj := c.pass.TypesInfo.Uses[n]; obj != nil {
				out = append(out, c.vars[obj]...)
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Now" || !isEngineType(c.pass.TypesInfo.TypeOf(sel.X)) {
				break
			}
			ck := clock{name: types.ExprString(sel.X)}
			if id, ok := sel.X.(*ast.Ident); ok {
				ck.obj = c.canonical(c.pass.TypesInfo.Uses[id])
			} else if path, ok := fieldPath(sel.X); ok {
				ck.path = path
			}
			out = append(out, ck)
		}
		return true
	})
	return out
}

func (c *clocks) carries(v types.Object, ck clock) bool {
	for _, have := range c.vars[v] {
		if have == ck {
			return true
		}
	}
	return false
}

// canonical follows `a := b` engine aliases to their root; the hop bound
// ends alias cycles.
func (c *clocks) canonical(obj types.Object) types.Object {
	for hops := 0; hops <= len(c.alias); hops++ {
		next, ok := c.alias[obj]
		if !ok {
			break
		}
		obj = next
	}
	return obj
}

// differs reports whether the clock and the scheduling receiver are
// provably different engines: both plain identifiers with different
// canonical objects, or both pure field paths that differ. Anything
// murkier (method results, indexing, mixed shapes) is left alone —
// aliasing would make a report a guess.
func (c *clocks) differs(ck clock, recv ast.Expr) bool {
	if id, ok := recv.(*ast.Ident); ok && ck.obj != nil {
		obj := c.pass.TypesInfo.Uses[id]
		return obj != nil && c.canonical(obj) != ck.obj
	}
	if path, ok := fieldPath(recv); ok && ck.path != "" {
		return path != ck.path
	}
	return false
}

// isEngineType reports whether t (possibly behind a pointer) is a named
// type called Engine.
func isEngineType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Engine"
}

// fieldPath renders a pure ident/field-select chain ("c.req.eng"), the
// shapes the cross-engine rule can compare reliably. Chains containing
// calls or indexing are rejected.
func fieldPath(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := fieldPath(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	}
	return "", false
}
