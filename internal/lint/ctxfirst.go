package lint

import (
	"go/ast"
	"go/types"
)

// ctxFirstPkgs are the serving-path packages where deadline propagation is
// mandatory: any exported function here that performs durable I/O or
// spawns workers is on the request path, and a missing context parameter
// severs the cancellation chain from the HTTP handler down to the engine
// worker pool.
var ctxFirstPkgs = []string{
	"internal/server",
	"internal/store",
	"internal/engine",
}

// ctxWALWritePath are the internal/wal functions whose call marks the
// caller as doing durable I/O. (Close is excluded: drain paths are
// deliberately context-free, matching io.Closer.)
var ctxWALWritePath = map[string]bool{
	"Append":    true,
	"AppendAck": true,
	"Sync":      true,
	"Compact":   true,
	"Open":      true,
}

// CtxFirst enforces the deadline-propagation contract on the serving path
// (DESIGN.md §11): exported functions in internal/server, internal/store,
// and internal/engine that write the WAL, spawn goroutines, or call another
// context-aware function must take a context.Context as their first
// parameter. Work reached through unexported helpers counts — the check
// propagates through the package's call graph — but work inside function
// literals does not: a closure runs later under its own caller's context.
//
// Functions named Close are exempt (drain is context-free by convention);
// other deliberate exceptions require `//lint:ignore ctxfirst <rationale>`.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc: "flags exported functions in internal/server, internal/store, and internal/engine " +
		"that do durable I/O or spawn workers without taking context.Context first",
	Run: runCtxFirst,
}

func runCtxFirst(pass *Pass) error {
	if segmentsMatch(pass.Pkg.Path, ctxFirstPkgs) == "" {
		return nil
	}
	info := pass.Pkg.Info

	// Index this package's function declarations by their type object so
	// call edges can be resolved to declarations.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}

	// Base facts: why a function does deadline-worthy work, plus the
	// same-package call edges for propagation through helpers.
	work := map[*types.Func]string{}
	calls := map[*types.Func][]*types.Func{}
	for obj, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// A closure's work happens when the closure runs, under
				// whatever context its eventual caller holds — building one
				// is not work.
				return false
			case *ast.GoStmt:
				if _, ok := work[obj]; !ok {
					work[obj] = "spawns a goroutine"
				}
			case *ast.CallExpr:
				callee := calleeFunc(info, n)
				if callee == nil {
					return true
				}
				if reason := ctxWorkReason(callee); reason != "" {
					if _, ok := work[obj]; !ok {
						work[obj] = reason
					}
				}
				if _, local := decls[callee]; local {
					calls[obj] = append(calls[obj], callee)
				}
			}
			return true
		})
	}

	// Propagate through unexported helpers to a fixed point: an exported
	// wrapper cannot hide WAL writes behind a private method.
	for changed := true; changed; {
		changed = false
		for caller, callees := range calls {
			if _, done := work[caller]; done {
				continue
			}
			for _, c := range callees {
				if _, ok := work[c]; ok {
					work[caller] = "reaches " + work[c] + " via " + c.Name()
					changed = true
					break
				}
			}
		}
	}

	for obj, fd := range decls {
		reason, ok := work[obj]
		if !ok || !fd.Name.IsExported() || fd.Name.Name == "Close" {
			continue
		}
		if takesCtxFirst(obj) {
			continue
		}
		pass.Reportf(fd.Name.Pos(),
			"exported %s %s but does not take context.Context as its first parameter: deadline propagation on the serving path breaks here (or annotate //lint:ignore ctxfirst with a rationale)",
			fd.Name.Name, reason)
	}
	return nil
}

// calleeFunc resolves a call expression to the called function object, for
// plain calls, method calls, and package-qualified calls alike.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ctxWorkReason classifies a callee as deadline-worthy work: a WAL
// write-path function, or any context-aware function (its signature asks
// for a context, so the caller must have one to give — fabricating
// context.Background mid-path severs cancellation). The context package
// itself is exempt or every WithTimeout would be self-flagging.
func ctxWorkReason(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	if pathHasSegments(pkg.Path(), "internal/wal") && ctxWALWritePath[fn.Name()] {
		return "writes the WAL (" + fn.Name() + ")"
	}
	if pkg.Path() == "context" {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return ""
	}
	if isContextType(sig.Params().At(0).Type()) {
		return "calls context-aware " + fn.Name()
	}
	return ""
}

// takesCtxFirst reports whether fn's first parameter is a context.Context.
func takesCtxFirst(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	return isContextType(sig.Params().At(0).Type())
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}
