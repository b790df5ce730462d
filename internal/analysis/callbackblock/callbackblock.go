// Package callbackblock forbids blocking operations inside completion
// callbacks registered with the progress engine. Callbacks run at event
// context inside the progress drain: the draining proc holds the
// progress try-lock, and a callback that parks on another party — a
// channel operation, a mutex acquire, a sim condition wait or resource
// acquire — deadlocks every rank polling that engine. Callbacks must
// record state and wake waiters; anything that can park belongs on the
// caller side of the completion boundary.
//
// A virtual-time sleep (sim.Proc.Sleep) is not blocking in that sense:
// it always resumes on its own timer, and while it runs the try-lock
// sends other pollers to park on the rank's activity condition until
// the drain broadcasts. It is the same charge the drain itself makes
// before every handler, so handlers may charge their cost model with it.
// time.Sleep stays banned: it stalls the OS thread driving the engine.
//
// Registration sites are recognized by shape: the function-valued
// arguments of CreateQP (mpi.Rank's queue-pair completion handler),
// SetEagerHandler, SetRndv, and HandleCtrl calls. The check follows
// same-package calls transitively from each registered function, through
// the package call graph (analysis.CallGraph).
package callbackblock

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags blocking operations reachable from completion callbacks.
var Analyzer = &analysis.Analyzer{
	Name: "callbackblock",
	Doc: "forbid blocking operations (channel ops, mutex locks, sim waits, time.Sleep) " +
		"inside completion callbacks registered with the progress engine",
	Run: run,
}

// registrarCalls name the methods whose function-valued arguments become
// progress-engine callbacks.
var registrarCalls = map[string]bool{
	"CreateQP":        true,
	"SetEagerHandler": true,
	"SetRndv":         true,
	"HandleCtrl":      true,
}

// simBlocking names methods of the simulation runtime that park the
// calling proc until another party acts, per receiver package suffix.
// Sleep is absent: it resumes on its own timer.
var simBlocking = map[string]bool{
	"Wait": true, "WaitTimeout": true, "WaitOn": true,
	"Acquire": true, "Hold": true, "Use": true, "Barrier": true,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, graph: analysis.BuildCallGraph(pass), seen: map[*ast.FuncDecl]bool{}}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			// encl is the declaration a registration sits in; nil for a
			// package-level initializer.
			encl, _ := d.(*ast.FuncDecl)
			ast.Inspect(d, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !registrarCalls[sel.Sel.Name] {
					return true
				}
				for _, arg := range call.Args {
					if isFuncValued(pass, arg) {
						c.checkCallbackExpr(encl, arg, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	return nil
}

func isFuncValued(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// checker walks callbacks and the same-package functions they call. Calls
// are followed through the package call graph; seen marks declarations
// already walked, so a helper is checked once, under the first callback
// that reaches it.
type checker struct {
	pass  *analysis.Pass
	graph *analysis.CallGraph
	seen  map[*ast.FuncDecl]bool
}

// checkCallbackExpr resolves a registered callback expression to its
// body (a func literal or a same-package function or method value) and
// checks it.
func (c *checker) checkCallbackExpr(encl *ast.FuncDecl, e ast.Expr, registrar string) {
	switch e := e.(type) {
	case *ast.FuncLit:
		c.checkBody(encl, e.Body, registrar+" callback")
	case *ast.Ident:
		c.checkFunc(e)
	case *ast.SelectorExpr:
		c.checkFunc(e.Sel)
	}
}

// checkFunc checks the same-package declaration id names, once.
func (c *checker) checkFunc(id *ast.Ident) {
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	if fi := c.graph.InfoFor(obj); fi != nil && !c.seen[fi.Decl] {
		c.seen[fi.Decl] = true
		c.checkBody(fi.Decl, fi.Decl.Body, fi.Decl.Name.Name)
	}
}

// checkBody walks one callback body, flagging blocking operations, then
// follows the same-package calls it makes. body belongs to decl: it is
// decl's own body, or a func literal inside it, whose calls are among
// decl's callees.
func (c *checker) checkBody(decl *ast.FuncDecl, body *ast.BlockStmt, origin string) {
	if body == nil {
		return
	}
	pass := c.pass
	// calls are the body's non-blocking call sites, outside closures.
	calls := map[*ast.CallExpr]bool{}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure defined here runs later, not inside this
			// callback; if it is itself registered as a callback, the
			// registration-site checks catch it with the right origin.
			return false
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send in completion callback %s would deadlock the progress drain", origin)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive in completion callback %s would deadlock the progress drain", origin)
			}
		case *ast.SelectStmt:
			if !hasDefault(n) {
				pass.Reportf(n.Pos(), "blocking select in completion callback %s would deadlock the progress drain", origin)
			}
			// The comm statements belong to the select (whose blocking
			// behavior was just judged); only the clause bodies can
			// introduce further blocking.
			for _, cl := range n.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					for _, s := range cc.Body {
						ast.Inspect(s, visit)
					}
				}
			}
			return false
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.Pos(), "range over channel in completion callback %s would deadlock the progress drain", origin)
				}
			}
		case *ast.CallExpr:
			if !blockingCall(pass, n, origin) {
				calls[n] = true
			}
		}
		return true
	}
	ast.Inspect(body, visit)
	if decl == nil {
		return
	}
	for _, callee := range c.graph.Callees(decl) {
		if fi := callee.Local; fi != nil && calls[callee.Call] && !c.seen[fi.Decl] {
			c.seen[fi.Decl] = true
			c.checkBody(fi.Decl, fi.Decl.Body, origin)
		}
	}
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall reports call if it can park the callback, and says whether
// it did.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr, origin string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// time.Sleep blocks the OS thread driving the engine.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && pkgName.Imported().Path() == "time" && sel.Sel.Name == "Sleep" {
			pass.Reportf(call.Pos(), "time.Sleep in completion callback %s would stall the progress drain", origin)
			return true
		}
	}
	if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
		pkg := fn.Pkg().Path()
		name := fn.Name()
		switch {
		case pkg == "sync" && (name == "Lock" || name == "RLock"):
			pass.Reportf(call.Pos(), "sync mutex %s in completion callback %s would deadlock the progress drain", name, origin)
			return true
		case (strings.HasSuffix(pkg, "internal/sim") || strings.HasSuffix(pkg, "internal/mpi")) && simBlocking[name]:
			pass.Reportf(call.Pos(), "blocking %s.%s in completion callback %s would deadlock the progress drain", pkg[strings.LastIndex(pkg, "/")+1:], name, origin)
			return true
		}
	}
	return false
}
