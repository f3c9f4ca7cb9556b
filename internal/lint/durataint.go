package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/callgraph"
	"repro/internal/lint/cfg"
)

// DuraTaint tracks durability-error taint from every WAL append/fsync/
// compact source through call chains to wherever the error is finally
// consumed. The sources are the WAL durability surface (walErrMethods):
// wal.WAL Append/AppendAck/Sync/Compact, the wal.File and os.File Sync
// methods (fsync), and wal.FS Truncate/Rename (the crash-safety ordering of
// Compact depends on them). A function whose error result may derive from a
// source is a *carrier*; the sources themselves are the depth-0 carriers.
// Dropping a carrier's error (blank identifier, bare expression statement,
// go/defer call) or swallowing it (assigning it to a variable no path ever
// reads) silently converts "the rating is durable" into "the rating is
// probably durable" — exactly the bug class the WAL contract (DESIGN.md §7)
// forbids, caught at the WAL call itself and three frames away from it.
//
// Soundness trade-offs (DESIGN.md §13): taint propagates through static
// calls only (interface calls and function values are not carriers), only
// function bodies are scanned (a package-level `var f = func(){…}`
// initializer is not), reads inside function literals count as consumption
// wherever the literal sits, and the swallow check is may-read over CFG
// paths. Deliberate exceptions are annotated
// `//lint:ignore durataint <rationale>`.
var DuraTaint = &Analyzer{
	Name: "durataint",
	Doc: "flags durability errors (WAL append/fsync/compact taint) that are dropped or " +
		"swallowed at the direct WAL call site or anywhere up the call chain",
	RunProgram: runDuraTaint,
}

type duraTaintState struct {
	prog *Program
	cg   *callgraph.Graph

	// carrier marks functions whose error result may derive from a
	// durability source. Base sources (the wal/os surface from
	// walErrMethods) are implicitly carriers via isBaseSource.
	carrier map[*callgraph.Node]bool
}

func runDuraTaint(pass *ProgramPass) error {
	st := &duraTaintState{
		prog:    pass.Prog,
		cg:      pass.Prog.CallGraph(),
		carrier: make(map[*callgraph.Node]bool),
	}

	// Carrier fixpoint: keep rescanning until no function changes state.
	// Rounds are bounded by the longest taint chain, which is short.
	for changed := true; changed; {
		changed = false
		for _, n := range st.cg.Funcs {
			if n.Decl == nil || st.carrier[n] {
				continue
			}
			if st.returnsTaint(n) {
				st.carrier[n] = true
				changed = true
			}
		}
	}

	for _, n := range st.cg.Funcs {
		if n.Decl == nil {
			continue
		}
		st.checkFunc(pass, n)
	}
	return nil
}

// walErrMethods maps the WAL durability surface's receiver types to their
// guarded methods. Receivers are identified by (package path segments, type
// name).
var walErrMethods = []struct {
	pkgSegs string
	typ     string
	methods map[string]bool
}{
	{"internal/wal", "WAL", map[string]bool{"Append": true, "AppendAck": true, "Sync": true, "Compact": true}},
	{"internal/wal", "File", map[string]bool{"Sync": true}},
	{"internal/wal", "FS", map[string]bool{"Truncate": true, "Rename": true}},
	{"os", "File", map[string]bool{"Sync": true}},
}

// namedRecv resolves a receiver type to its defining package path and type
// name, dereferencing one level of pointer.
func namedRecv(t types.Type) (pkgPath, name string) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", ""
	}
	return n.Obj().Pkg().Path(), n.Obj().Name()
}

// isBaseSource reports whether fn is on the WAL durability surface
// (walErrMethods).
func isBaseSource(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recvPkg, recvName := namedRecv(sig.Recv().Type())
	if recvPkg == "" {
		return false
	}
	for _, g := range walErrMethods {
		if recvName != g.typ || !g.methods[fn.Name()] {
			continue
		}
		if g.pkgSegs == "os" {
			if recvPkg == "os" {
				return true
			}
			continue
		}
		if pathHasSegments(recvPkg, g.pkgSegs) {
			return true
		}
	}
	return false
}

// taintedCallee reports whether the call targets a base source or a
// carrier, via static resolution.
func (st *duraTaintState) taintedCallee(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if isBaseSource(fn) {
		return true
	}
	n := st.cg.Node(fn)
	return n != nil && st.carrier[n]
}

// errorResultIndexes returns the positions of error-typed results in a
// call's result tuple (or single result).
func errorResultIndexes(info *types.Info, call *ast.CallExpr) []int {
	tv, ok := info.Types[call]
	if !ok {
		return nil
	}
	var out []int
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				out = append(out, i)
			}
		}
	default:
		if isErrorType(tv.Type) {
			out = append(out, 0)
		}
	}
	return out
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// returnsTaint reports whether n's error result may derive from a tainted
// call: directly returned, returned through a tainted local, or returned
// through a wrapping call (fmt.Errorf("%w", err)) fed a tainted value. The
// local-variable analysis is flow-insensitive.
func (st *duraTaintState) returnsTaint(n *callgraph.Node) bool {
	info := st.prog.Info(n.SrcPath)
	if info == nil {
		return false
	}
	sig, ok := n.Func.Type().(*types.Signature)
	if !ok || sig.Results() == nil {
		return false
	}
	hasErrResult := false
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			hasErrResult = true
		}
	}
	if !hasErrResult {
		return false
	}

	tainted := st.taintedObjects(info, n)

	// isTaintedExpr: a tainted local, a tainted call, or an error-typed
	// call fed a tainted argument (wrapping).
	var isTaintedExpr func(e ast.Expr) bool
	isTaintedExpr = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[e]
			return obj != nil && tainted[obj]
		case *ast.CallExpr:
			if st.taintedCallee(info, e) {
				return true
			}
			if len(errorResultIndexes(info, e)) == 0 {
				return false
			}
			for _, arg := range e.Args {
				if isTaintedExpr(arg) {
					return true
				}
			}
		}
		return false
	}

	// Named error results assigned a tainted value taint the function even
	// through a bare return.
	if res := n.Decl.Type.Results; res != nil {
		for _, f := range res.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil && isErrorType(obj.Type()) && tainted[obj] {
					return true
				}
			}
		}
	}

	found := false
	inspectSkippingFuncLits(n.Decl.Body, func(node ast.Node) {
		ret, ok := node.(*ast.ReturnStmt)
		if !ok || found {
			return
		}
		for i, r := range ret.Results {
			// Only error-typed return slots carry taint.
			if i < sig.Results().Len() && len(ret.Results) == sig.Results().Len() {
				if !isErrorType(sig.Results().At(i).Type()) {
					continue
				}
			}
			if isTaintedExpr(r) {
				found = true
				return
			}
		}
	})
	return found
}

// taintedObjects collects, flow-insensitively, the local objects assigned
// an error-typed result of a tainted call (directly or via aliasing).
func (st *duraTaintState) taintedObjects(info *types.Info, n *callgraph.Node) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	lhsObj := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}
	// Iterate to a small fixpoint for aliasing chains (err2 := err).
	for changed := true; changed; {
		changed = false
		inspectSkippingFuncLits(n.Decl.Body, func(node ast.Node) {
			as, ok := node.(*ast.AssignStmt)
			if !ok {
				return
			}
			mark := func(obj types.Object) {
				if obj != nil && isErrorType(obj.Type()) && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
				call, ok := as.Rhs[0].(*ast.CallExpr)
				if !ok || !st.taintedCallee(info, call) {
					return
				}
				for _, idx := range errorResultIndexes(info, call) {
					if idx < len(as.Lhs) {
						mark(lhsObj(as.Lhs[idx]))
					}
				}
				return
			}
			for i, rhs := range as.Rhs {
				if i >= len(as.Lhs) {
					break
				}
				switch r := ast.Unparen(rhs).(type) {
				case *ast.CallExpr:
					if st.taintedCallee(info, r) && len(errorResultIndexes(info, r)) > 0 {
						mark(lhsObj(as.Lhs[i]))
					}
				case *ast.Ident:
					if obj := info.Uses[r]; obj != nil && tainted[obj] {
						mark(lhsObj(as.Lhs[i]))
					}
				}
			}
		})
	}
	return tainted
}

// checkFunc reports dropped and swallowed carrier errors in one function.
func (st *duraTaintState) checkFunc(pass *ProgramPass, n *callgraph.Node) {
	info := st.prog.Info(n.SrcPath)
	if info == nil {
		return
	}

	describe := func(call *ast.CallExpr) string {
		fn := calleeFunc(info, call)
		if fn == nil {
			return "carrier"
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			_, typ := namedRecv(sig.Recv().Type())
			if typ != "" {
				return typ + "." + fn.Name()
			}
		}
		return fn.Name()
	}
	reportDrop := func(call *ast.CallExpr) {
		pass.Reportf(call.Pos(),
			"durability error from %s dropped: its error carries WAL append/fsync taint and must be checked (or annotate //lint:ignore durataint with a rationale)",
			describe(call))
	}

	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.ExprStmt:
			if call, ok := node.X.(*ast.CallExpr); ok && st.taintedCallee(info, call) {
				reportDrop(call)
			}
		case *ast.DeferStmt:
			if st.taintedCallee(info, node.Call) {
				reportDrop(node.Call)
			}
		case *ast.GoStmt:
			if st.taintedCallee(info, node.Call) {
				reportDrop(node.Call)
			}
		case *ast.AssignStmt:
			st.checkAssign(pass, info, n, st.prog.CFG(n.Decl.Body), node, describe, reportDrop)
			return true
		}
		return true
	})
}

// checkAssign handles carrier calls on the right-hand side of an
// assignment: a blank in the error slot is a drop; a named variable whose
// value no CFG path ever reads is a swallow.
func (st *duraTaintState) checkAssign(pass *ProgramPass, info *types.Info, n *callgraph.Node, g *cfg.Graph, as *ast.AssignStmt, describe func(*ast.CallExpr) string, reportDrop func(*ast.CallExpr)) {
	check := func(call *ast.CallExpr, lhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return // field/index destination: stored, assume consumed
		}
		if id.Name == "_" {
			reportDrop(call)
			return
		}
		var obj types.Object
		if obj = info.Defs[id]; obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if st.isNamedResult(info, n, obj) {
			return // assigned to a named result: returning it reads it
		}
		if !st.readReachable(info, g, as, id, obj, n.Decl.Body) {
			pass.Reportf(call.Pos(),
				"durability error from %s swallowed: %s is assigned here but no execution path reads it afterwards — handle it, return it, or annotate //lint:ignore durataint with a rationale",
				describe(call), id.Name)
		}
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !st.taintedCallee(info, call) {
			return
		}
		for _, idx := range errorResultIndexes(info, call) {
			if idx < len(as.Lhs) {
				check(call, as.Lhs[idx])
			}
		}
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || i >= len(as.Lhs) || !st.taintedCallee(info, call) {
			continue
		}
		if len(errorResultIndexes(info, call)) == 0 {
			continue
		}
		check(call, as.Lhs[i])
	}
}

// isNamedResult reports whether obj is one of n's named result parameters.
func (st *duraTaintState) isNamedResult(info *types.Info, n *callgraph.Node, obj types.Object) bool {
	res := n.Decl.Type.Results
	if res == nil {
		return false
	}
	for _, f := range res.List {
		for _, name := range f.Names {
			if info.Defs[name] == obj {
				return true
			}
		}
	}
	return false
}

// readReachable reports whether any execution path reads obj after the
// assignment: a use later in the assignment's block, a use in any
// CFG-reachable block, or a use inside a function literal or defer
// statement anywhere in the body (those run later by construction).
func (st *duraTaintState) readReachable(info *types.Info, g *cfg.Graph, as *ast.AssignStmt, assignID *ast.Ident, obj types.Object, body *ast.BlockStmt) bool {
	// Collect every read of obj with its position.
	var reads []token.Pos
	ast.Inspect(body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok || id == assignID {
			return true
		}
		if info.Uses[id] == obj {
			reads = append(reads, id.Pos())
		}
		return true
	})
	if len(reads) == 0 {
		return false
	}

	// Reads inside function literals or defers run after the assignment
	// regardless of lexical position.
	late := append(spansOf[*ast.FuncLit](body), spansOf[*ast.DeferStmt](body)...)
	for _, r := range reads {
		if late.has(r) {
			return true
		}
	}

	blk, idx := g.BlockOf(as)
	if blk == nil {
		return true // dead code or unmapped: stay silent
	}
	reach := g.ReachableFrom(blk)
	for _, r := range reads {
		rb, ri, _ := g.ContainingNode(r)
		if rb == nil {
			continue
		}
		if rb == blk && ri > idx {
			return true
		}
		if rb == blk && ri == idx {
			continue // the assignment statement itself (LHS references)
		}
		if reach[rb] {
			return true
		}
	}
	return false
}
