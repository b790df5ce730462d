// Package detertaint keeps the simulation bit-reproducible. The sweep
// harness compares serial, parallel and sharded passes byte-for-byte, and
// the committed tables promise that regenerating them is deterministic:
// a run must be a pure function of its configuration. The analyzer
// enforces that in two layers.
//
// Three lexical bans forbid the constructs at their site: importing
// math/rand (use a locally seeded generator), calling the wall-clock
// functions of package time (wall time is injected at the CLI boundary;
// virtual time comes from sim.Proc), and calling anything but builtins,
// type conversions and Sprint* inside a map range or a sync.Map.Range
// callback — iteration order is random per run, so any other call there
// is an action taken in nondeterministic order. The sanctioned shape is
// collect keys, sort, then iterate the sorted slice.
//
// Taint tracking follows the VALUES: a timestamp, a math/rand draw, or a
// map-iteration key may travel through assignments, arithmetic, helper
// returns, and cross-package calls before it reaches the place where it
// breaks reproducibility — an event-scheduling call or a report write.
// It is a flow-sensitive may-analysis over the shared CFG
// (internal/analysis/cfg.go), keyed on types.Object. Sources generate
// taint, sort.* sanitizers kill it, and sinks — Engine scheduling
// methods, ShardSet.post, fmt.Fprint*, writer methods — report any taint
// that arrives. Function summaries (FuncFact.Taints / Sinks /
// SinkParams) compose bottom-up over the import DAG through the vetx
// fact channel, so a helper that returns unsorted map keys, or one that
// forwards its argument to a writer two calls down, is handled at every
// call site.
//
// Two historical regressions shaped the rules. The PR-6 completion bug
// scheduled a responder-side event using the responder's clock on the
// requester's engine; the cross-engine rule flags a time read from one
// engine's Now flowing into a same-engine scheduling method (scheduleCall,
// At, AtCall) of a different engine — Engine.Post and ShardSet.post stay
// legal because they are the sanctioned cross-engine path. The PR-8
// ingress bug emitted flow grants while ranging a map, the sink two
// helper hops down; the map-range ban flags the call at the loop,
// however deep the sink hides.
package detertaint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"repro/internal/analysis"
)

// Analyzer bans nondeterminism sources in sim-reachable code and traces
// nondeterministic values to scheduling and emission sinks.
var Analyzer = &analysis.Analyzer{
	Name: "detertaint",
	Doc: "forbid math/rand, wall-clock reads, and calls made in map order; trace nondeterministic " +
		"values (wall clock, math/rand, map iteration order) through assignments and calls to " +
		"event-scheduling and report-emission sinks; flag cross-engine clock transfer",
	Run: run,
}

// maxSummaryDepth bounds how deep function summaries recurse through
// local call chains, keeping `make lint` linear in the code size rather
// than the call-graph depth.
const maxSummaryDepth = 4

// source describes where a tainted value was born.
type source struct {
	// kind is "wallclock", "rand", "order" (map iteration), "clock"
	// (virtual engine time — deterministic, tracked only for the
	// cross-engine rule), or "dep" (imported from a dependency fact).
	kind string
	// what names the source in diagnostics ("time.Now", "map iteration
	// order", ...).
	what string
	// engineObj / enginePath identify which engine a "clock" value was
	// read from: the canonical object for a plain identifier receiver,
	// or the field path ("c.req.eng") for a selector chain. engineName
	// is the receiver as written, for diagnostics.
	engineObj  types.Object
	enginePath string
	engineName string
}

// nondet reports whether the source breaks reproducibility on its own.
// Engine-clock values are deterministic; they only matter cross-engine.
func (s *source) nondet() bool { return s != nil && s.kind != "clock" }

// taint is the dataflow value: one representative source plus a bitmask
// of function parameters the value derives from (for SinkParams
// summaries).
type taint struct {
	src    *source
	params uint32
}

func (t taint) empty() bool { return t.src == nil && t.params == 0 }

func unionTaint(a, b taint) taint {
	// A nondeterministic source outranks an engine-clock one: in
	// `e.Now()+jitter` the jitter is what breaks reproducibility.
	if b.src != nil && (a.src == nil || (!a.src.nondet() && b.src.nondet())) {
		a.src = b.src
	}
	a.params |= b.params
	return a
}

// state maps in-scope objects to their taint.
type state map[types.Object]taint

func cloneState(s state) state {
	out := make(state, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// mergeInto unions src into *dst, reporting whether *dst grew. The
// lattice is monotone: a source, once set, is never replaced, and param
// bits only accumulate — so the fixpoint terminates.
func mergeInto(dst *state, src state) bool {
	if *dst == nil {
		*dst = cloneState(src)
		return true
	}
	changed := false
	for obj, t := range src {
		old, ok := (*dst)[obj]
		merged := unionTaint(old, t)
		if !ok || merged.src != old.src || merged.params != old.params {
			(*dst)[obj] = merged
			changed = true
		}
	}
	return changed
}

// summary is the per-function result: does it return nondeterminism,
// does it reach a sink, and which parameters flow into sink arguments.
type summary struct {
	taints   bool
	taintSrc *source
	sinks    bool
	// sinkParams is a bitmask of parameter indexes that flow into sink
	// arguments.
	sinkParams uint32
}

type checker struct {
	pass *analysis.Pass
	g    *analysis.CallGraph
	memo map[*ast.FuncDecl]*summary
	// alias maps an engine-typed identifier to the identifier it was
	// copied from, so `e := t.eng; e.Now()` and `t.eng.Now()` do not
	// read as different engines. Flow-insensitive, per function.
	alias map[types.Object]types.Object
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass: pass,
		g:    analysis.BuildCallGraph(pass),
		memo: map[*ast.FuncDecl]*summary{},
	}
	for _, fi := range c.g.Roots(func(*analysis.FuncInfo) bool { return true }) {
		sum := &summary{}
		c.analyze(fi.Decl, sum, true, maxSummaryDepth)
	}
	for _, f := range pass.Files {
		if !pass.IsTestFile(f) {
			checkBans(pass, f)
		}
	}
	c.exportSummaries()
	return nil
}

// exportSummaries publishes Taints/Sinks facts for every function
// addressable from other packages.
func (c *checker) exportSummaries() {
	funcs := map[string]analysis.FuncFact{}
	for _, fi := range c.g.Roots(func(fi *analysis.FuncInfo) bool { return fi.Key != "" }) {
		s := c.summaryOf(fi.Decl, maxSummaryDepth)
		if !s.taints && !s.sinks {
			continue
		}
		f := analysis.FuncFact{Taints: s.taints, Sinks: s.sinks}
		if s.taintSrc != nil {
			f.TaintWhat = s.taintSrc.what
		}
		for i := 0; i < 32; i++ {
			if s.sinkParams&(1<<i) != 0 {
				f.SinkParams = append(f.SinkParams, i)
			}
		}
		funcs[fi.Key] = f
	}
	if len(funcs) == 0 {
		return
	}
	if c.pass.ExportFacts == nil {
		c.pass.ExportFacts = &analysis.ImportFacts{}
	}
	c.pass.ExportFacts.Funcs = funcs
}

// summaryOf returns fd's memoized summary, computing it without
// reporting. The memo entry is installed before recursing, so call
// cycles resolve to the optimistic empty summary.
func (c *checker) summaryOf(fd *ast.FuncDecl, depth int) *summary {
	if s, ok := c.memo[fd]; ok {
		return s
	}
	s := &summary{}
	c.memo[fd] = s
	if depth <= 0 {
		return s
	}
	c.analyze(fd, s, false, depth)
	return s
}

// analyze runs the taint dataflow over one function: seed the parameters,
// iterate the CFG to a fixpoint, then replay each block checking sinks
// (reporting if report is set) and collecting the summary.
func (c *checker) analyze(fd *ast.FuncDecl, sum *summary, report bool, depth int) {
	if fd.Body == nil {
		return
	}
	// Summary computation recurses into callees mid-analysis; the alias
	// map is per-function, so save and restore the caller's.
	saved := c.alias
	c.alias = map[types.Object]types.Object{}
	defer func() { c.alias = saved }()
	cfg := analysis.BuildCFG(fd.Body)

	seeds := state{}
	bit := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := c.pass.TypesInfo.Defs[name]; obj != nil && bit < 32 {
					seeds[obj] = taint{params: 1 << bit}
				}
				bit++
			}
		}
	}

	ins := make([]state, len(cfg.Blocks))
	mergeInto(&ins[cfg.Entry.Index], seeds)
	work := []*analysis.CFGBlock{cfg.Entry}
	for len(work) > 0 {
		bl := work[len(work)-1]
		work = work[:len(work)-1]
		st := cloneState(ins[bl.Index])
		for _, n := range bl.Nodes {
			c.applyNode(st, n, depth)
		}
		for _, succ := range bl.Succs {
			if mergeInto(&ins[succ.Index], st) {
				work = append(work, succ)
			}
		}
	}

	for _, bl := range cfg.Blocks {
		if ins[bl.Index] == nil {
			continue // unreachable
		}
		st := cloneState(ins[bl.Index])
		for _, n := range bl.Nodes {
			c.checkNode(st, n, sum, report, depth)
			c.applyNode(st, n, depth)
		}
	}
}

// applyNode is the transfer function for one CFG node.
func (c *checker) applyNode(st state, n ast.Node, depth int) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		c.applyAssign(st, n, depth)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				obj := c.pass.TypesInfo.Defs[name]
				if obj == nil {
					continue
				}
				var t taint
				if len(vs.Values) == 1 && len(vs.Names) > 1 {
					t = c.exprTaint(st, vs.Values[0], depth)
				} else if i < len(vs.Values) {
					t = c.exprTaint(st, vs.Values[i], depth)
				}
				setTaint(st, obj, t)
			}
		}
	case *ast.RangeStmt:
		// The range head stands for the per-iteration key/value
		// assignment: over a map it is an order source; over anything
		// else the iteration variables inherit the operand's taint.
		var t taint
		if tx := c.pass.TypesInfo.TypeOf(n.X); tx != nil {
			if _, isMap := tx.Underlying().(*types.Map); isMap {
				t = taint{src: &source{kind: "order", what: "map iteration order"}}
			} else {
				t = c.exprTaint(st, n.X, depth)
			}
		}
		for _, v := range []ast.Expr{n.Key, n.Value} {
			id, ok := v.(*ast.Ident)
			if !ok {
				continue
			}
			obj := c.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = c.pass.TypesInfo.Uses[id]
			}
			if obj != nil {
				setTaint(st, obj, t)
			}
		}
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			c.applySanitizer(st, call)
		}
	case *ast.DeferStmt:
		c.applySanitizer(st, n.Call)
	}
}

// applyAssign threads taint through an assignment: strong updates for
// plain identifiers, weak (union) updates through fields and indexes.
func (c *checker) applyAssign(st state, as *ast.AssignStmt, depth int) {
	op := as.Tok != token.ASSIGN && as.Tok != token.DEFINE // +=, |=, ...
	single := len(as.Rhs) == 1 && len(as.Lhs) > 1
	var shared taint
	if single {
		shared = c.exprTaint(st, as.Rhs[0], depth)
	}
	for i, lhs := range as.Lhs {
		var t taint
		if single {
			t = shared
		} else if i < len(as.Rhs) {
			t = c.exprTaint(st, as.Rhs[i], depth)
		}
		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			obj := c.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = c.pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			if !single && i < len(as.Rhs) {
				c.noteEngineAlias(obj, as.Rhs[i])
			}
			if op {
				t = unionTaint(st[obj], t)
			}
			setTaint(st, obj, t)
			continue
		}
		// Field or index store: taint the container, never untaint it —
		// other elements may still be tainted.
		if t.empty() {
			continue
		}
		if obj := rootObject(c.pass, lhs); obj != nil {
			st[obj] = unionTaint(st[obj], t)
		}
	}
}

// noteEngineAlias records `a := b` copies of engine-typed identifiers so
// the cross-engine rule sees through the rename.
func (c *checker) noteEngineAlias(dst types.Object, rhs ast.Expr) {
	if !isEngineType(dst.Type()) {
		return
	}
	if id, ok := rhs.(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
			c.alias[dst] = c.canonical(obj)
		}
	}
}

func (c *checker) canonical(obj types.Object) types.Object {
	for {
		next, ok := c.alias[obj]
		if !ok || next == obj {
			return obj
		}
		obj = next
	}
}

func setTaint(st state, obj types.Object, t taint) {
	if t.empty() {
		delete(st, obj)
		return
	}
	st[obj] = t
}

// applySanitizer kills the taint of a value passed to an in-place sort:
// ordering nondeterminism ends where the order is reimposed.
func (c *checker) applySanitizer(st state, call *ast.CallExpr) {
	if !isSortCall(c.pass, call) || len(call.Args) == 0 {
		return
	}
	if obj := rootObject(c.pass, call.Args[0]); obj != nil {
		delete(st, obj)
	}
}

// isSortCall recognizes the sort/slices package sorters.
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

// exprTaint evaluates the taint of an expression under st.
func (c *checker) exprTaint(st state, e ast.Expr, depth int) taint {
	switch e := e.(type) {
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = c.pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return taint{}
		}
		return st[obj]
	case *ast.SelectorExpr:
		return c.exprTaint(st, e.X, depth)
	case *ast.ParenExpr:
		return c.exprTaint(st, e.X, depth)
	case *ast.StarExpr:
		return c.exprTaint(st, e.X, depth)
	case *ast.UnaryExpr:
		return c.exprTaint(st, e.X, depth)
	case *ast.IndexExpr:
		return unionTaint(c.exprTaint(st, e.X, depth), c.exprTaint(st, e.Index, depth))
	case *ast.SliceExpr:
		return c.exprTaint(st, e.X, depth)
	case *ast.TypeAssertExpr:
		return c.exprTaint(st, e.X, depth)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return taint{} // branching on taint is out of scope
		}
		return unionTaint(c.exprTaint(st, e.X, depth), c.exprTaint(st, e.Y, depth))
	case *ast.CompositeLit:
		var t taint
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t = unionTaint(t, c.exprTaint(st, el, depth))
		}
		return t
	case *ast.CallExpr:
		return c.callTaint(st, e, depth)
	}
	return taint{}
}

// callTaint evaluates the taint of a call's result: sources generate it,
// summarized callees declare it, and unknown callees (stdlib transforms,
// methods) propagate the union of receiver and argument taint.
func (c *checker) callTaint(st state, call *ast.CallExpr, depth int) taint {
	// Type conversions pass taint through.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return c.exprTaint(st, call.Args[0], depth)
		}
		return taint{}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append", "min", "max":
				var t taint
				for _, a := range call.Args {
					t = unionTaint(t, c.exprTaint(st, a, depth))
				}
				return t
			}
			return taint{} // len, cap, make, new, ... produce clean values
		}
	}
	if src := c.sourceOf(call); src != nil {
		if c.pass.WaivedAt(call.Pos()) {
			return taint{} // a waived source is accepted for callers too
		}
		return taint{src: src}
	}
	if isSortCall(c.pass, call) {
		return taint{} // slices.Sorted and friends return ordered data
	}
	// Resolved callees are judged by their summaries.
	if obj := calleeObject(c.pass, call); obj != nil {
		if info := c.g.InfoFor(obj); info != nil {
			s := c.summaryOf(info.Decl, depth-1)
			if s.taints {
				return taint{src: s.taintSrc}
			}
			return taint{}
		}
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg() != c.pass.Pkg {
			if key := analysis.FactKeyOf(fn); key != "" {
				if fact, ok := c.g.DepFunc(fn.Pkg().Path(), key); ok {
					if fact.Taints {
						return taint{src: &source{kind: "dep", what: fact.TaintWhat}}
					}
					return taint{}
				}
			}
		}
	}
	// Unknown callee: assume it transforms its inputs (strconv.Itoa of a
	// tainted value is tainted), including a method's receiver.
	var t taint
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if _, isPkg := c.pass.TypesInfo.Uses[selIdent(sel.X)].(*types.PkgName); !isPkg {
			t = unionTaint(t, c.exprTaint(st, sel.X, depth))
		}
	}
	for _, a := range call.Args {
		t = unionTaint(t, c.exprTaint(st, a, depth))
	}
	return t
}

func selIdent(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
}

// sourceOf recognizes taint sources: wall-clock reads, math/rand draws,
// and engine clock reads (the latter tracked for the cross-engine rule).
func (c *checker) sourceOf(call *ast.CallExpr) *source {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := c.pass.TypesInfo.Uses[id].(*types.PkgName); ok {
			switch pkgName.Imported().Path() {
			case "time":
				switch sel.Sel.Name {
				case "Now", "Since", "Until":
					return &source{kind: "wallclock", what: "time." + sel.Sel.Name}
				}
			case "math/rand", "math/rand/v2":
				return &source{kind: "rand", what: "math/rand." + sel.Sel.Name}
			}
			return nil
		}
	}
	if sel.Sel.Name == "Now" && isEngineExpr(c.pass, sel.X) {
		src := &source{kind: "clock", what: "engine clock", engineName: types.ExprString(sel.X)}
		if id, ok := sel.X.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
				src.engineObj = c.canonical(obj)
			}
		} else if path, ok := fieldPath(sel.X); ok {
			src.enginePath = path
		}
		return src
	}
	return nil
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

func isEngineExpr(pass *analysis.Pass, e ast.Expr) bool {
	return isEngineType(pass.TypesInfo.TypeOf(e))
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

// Sink recognition -----------------------------------------------------

// engineScheduleMethods are the Engine methods that enqueue events.
var engineScheduleMethods = map[string]bool{
	"scheduleCall": true, "Post": true,
	"At": true, "After": true, "AtCall": true, "AfterCall": true, "AfterFunc": true,
}

// sameClockMethods schedule on the receiver's own timeline, so a time
// read from a DIFFERENT engine's clock arriving here is the PR-6 bug.
// Post is exempt: it is the sanctioned cross-engine path.
var sameClockMethods = map[string]bool{
	"scheduleCall": true, "At": true, "AtCall": true,
}

// scheduleSink matches calls to Engine scheduling methods and
// ShardSet.post, returning the receiver expression and method name.
func scheduleSink(pass *analysis.Pass, call *ast.CallExpr) (recv ast.Expr, typeName, method string, ok bool) {
	sel, selOK := call.Fun.(*ast.SelectorExpr)
	if !selOK {
		return nil, "", "", false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return nil, "", "", false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return nil, "", "", false
	}
	switch {
	case named.Obj().Name() == "Engine" && engineScheduleMethods[sel.Sel.Name]:
		return sel.X, "Engine", sel.Sel.Name, true
	case named.Obj().Name() == "ShardSet" && sel.Sel.Name == "post":
		return sel.X, "ShardSet", sel.Sel.Name, true
	}
	return nil, "", "", false
}

// emissionSink matches report/trace output calls: fmt.Fprint* and
// Write/WriteString methods. Returns the sink's display name.
func emissionSink(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if id, isIdent := sel.X.(*ast.Ident); isIdent {
		if pkgName, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
			if pkgName.Imported().Path() == "fmt" {
				switch sel.Sel.Name {
				case "Fprint", "Fprintf", "Fprintln":
					return "fmt." + sel.Sel.Name, true
				}
			}
			return "", false
		}
	}
	if (sel.Sel.Name == "Write" || sel.Sel.Name == "WriteString") && len(call.Args) >= 1 {
		return sel.Sel.Name, true
	}
	return "", false
}

// calleeObject resolves a call to the object it invokes, if static.
func calleeObject(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fn]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fn.Sel]
	}
	return nil
}

// checkNode inspects one CFG node for sink calls under the current
// state, reporting (when report is set) and accumulating the summary.
// FuncLit bodies are skipped — a closure runs later, under a state this
// block does not determine; the map-range ban covers the sync.Map.Range
// closures that matter.
func (c *checker) checkNode(st state, n ast.Node, sum *summary, report bool, depth int) {
	if rng, ok := n.(*ast.RangeStmt); ok {
		n = rng.X // body statements live in their own blocks
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		if ret, ok := m.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				if t := c.exprTaint(st, r, depth); t.src.nondet() {
					sum.taints = true
					sum.taintSrc = t.src
				}
			}
			return true
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		c.checkCall(st, call, sum, report, depth)
		return true
	})
}

// checkCall applies the sink rules to one call expression.
func (c *checker) checkCall(st state, call *ast.CallExpr, sum *summary, report bool, depth int) {
	if recv, typeName, method, ok := scheduleSink(c.pass, call); ok {
		sum.sinks = true
		for _, arg := range call.Args {
			t := c.exprTaint(st, arg, depth)
			sum.sinkParams |= t.params
			if t.src == nil {
				continue
			}
			if t.src.nondet() {
				if report {
					c.pass.Reportf(arg.Pos(), "nondeterministic value (from %s) flows into %s.%s: event scheduling must be a pure function of the seed",
						t.src.what, typeName, method)
				}
				continue
			}
			// Engine-clock value: flag only a provably different engine.
			if sameClockMethods[method] && report && c.crossEngine(t.src, recv) {
				c.pass.Reportf(arg.Pos(), "schedules on engine %s at a time read from engine %s's clock: cross-engine time must flow through Engine.Post or ShardSet.post with pair lookahead added",
					types.ExprString(recv), t.src.engineName)
			}
		}
		return
	}
	if name, ok := emissionSink(c.pass, call); ok {
		sum.sinks = true
		for _, arg := range call.Args {
			t := c.exprTaint(st, arg, depth)
			sum.sinkParams |= t.params
			if t.src.nondet() && report {
				c.pass.Reportf(arg.Pos(), "nondeterministic value (from %s) flows into %s: report output must be byte-reproducible",
					t.src.what, name)
			}
		}
		return
	}
	// Calls into summarized functions: inherit their sink behavior.
	obj := calleeObject(c.pass, call)
	if obj == nil {
		return
	}
	var calleeSum *summary
	var calleeName string
	if info := c.g.InfoFor(obj); info != nil {
		if depth > 0 {
			calleeSum = c.summaryOf(info.Decl, depth-1)
			calleeName = info.Decl.Name.Name
		}
	} else if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg() != c.pass.Pkg {
		if key := analysis.FactKeyOf(fn); key != "" {
			if fact, ok := c.g.DepFunc(fn.Pkg().Path(), key); ok && (fact.Sinks || fact.Taints) {
				calleeSum = &summary{sinks: fact.Sinks}
				for _, p := range fact.SinkParams {
					if p < 32 {
						calleeSum.sinkParams |= 1 << p
					}
				}
				calleeName = fn.Pkg().Name() + "." + key
			}
		}
	}
	if calleeSum == nil || !calleeSum.sinks {
		return
	}
	sum.sinks = true
	for i, arg := range call.Args {
		if i >= 32 || calleeSum.sinkParams&(1<<i) == 0 {
			continue
		}
		t := c.exprTaint(st, arg, depth)
		sum.sinkParams |= t.params
		if t.src.nondet() && report {
			c.pass.Reportf(arg.Pos(), "nondeterministic value (from %s) passed to %s, which forwards it to a scheduling or emission sink",
				t.src.what, calleeName)
		}
	}
}

// crossEngine reports whether the clock source and the sink receiver are
// provably different engines: both plain identifiers with different
// canonical objects, or both pure field paths that differ. Anything
// murkier (method results, indexing, mixed shapes) is left alone —
// aliasing would make a report a guess.
func (c *checker) crossEngine(src *source, recv ast.Expr) bool {
	if id, ok := recv.(*ast.Ident); ok && src.engineObj != nil {
		obj := c.pass.TypesInfo.Uses[id]
		return obj != nil && c.canonical(obj) != src.engineObj
	}
	if path, ok := fieldPath(recv); ok && src.enginePath != "" {
		return path != src.enginePath
	}
	return false
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
// imports, wall-clock calls, and calls made in map order.
func checkBans(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path == "math/rand" || path == "math/rand/v2" {
			pass.Reportf(imp.Pos(), "import of %s in a sim-reachable package: use a locally seeded generator so runs are reproducible", path)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			checkTimeCall(pass, call)
		}
		if body, over := orderedBody(pass, n); body != nil {
			checkOrderedCalls(pass, body, over)
		}
		return true
	})
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

// checkOrderedCalls flags every call in a map-ordered body except
// builtins, type conversions and Sprint* formatting: whatever the callee
// does, it does in nondeterministic order — the ingress-ordering bug
// emitted perfectly deterministic values in map order. Closures are walked too:
// the loop body runs per iteration either way. A nested ordered body is
// left to its own check, so no call is flagged twice.
func checkOrderedCalls(pass *analysis.Pass, body *ast.BlockStmt, over string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name, ordered := orderedCallee(pass, call); ordered {
				pass.Reportf(call.Pos(), "call to %s while ranging over %s: iteration order is nondeterministic; collect and sort keys first", name, over)
			}
		}
		inner, _ := orderedBody(pass, n)
		return inner == nil
	})
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
