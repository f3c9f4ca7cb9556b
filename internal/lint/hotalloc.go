package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/callgraph"
)

// HotAlloc statically backs the benchdiff 0-alloc gate: a function annotated
//
//	//lint:hotpath <why this must stay allocation-free>
//
// must be transitively allocation-free and lock-free — itself and every
// function it can reach through the call graph. The benchmark gate catches a
// regression only on the inputs the benchmark exercises; this analyzer
// proves the property over all paths, so an allocation hidden behind a
// rarely-taken branch three calls down still fails lint.
//
// Flagged constructs: make/new/append, pointer and slice/map composite
// literals, function literals (closure capture), go/defer/select and channel
// operations, non-constant string concatenation, string<->[]byte/[]rune
// conversions, calls into package sync (sync/atomic stays allowed — it is
// the lock-free toolkit), calls through function values or unresolved
// interfaces, and calls to external functions whose bodies the program
// cannot see (a small allowlist covers math and math/bits). Deliberate
// trade-offs (DESIGN.md §13): plain by-value struct literals are allowed
// (they live on the stack unless escape analysis says otherwise, and the
// benchmark gate owns the escaping case), as are map writes (growth is
// load-dependent and runtime-gated) and panic calls (unreachable in steady
// state).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "proves //lint:hotpath-annotated functions transitively allocation-free and " +
		"lock-free over the whole-program call graph, backing the benchdiff 0-alloc gate",
	RunProgram: runHotAlloc,
}

// hotAllocExternAllow lists external (no-body) callee packages that are
// known allocation- and lock-free: pure arithmetic on machine words.
var hotAllocExternAllow = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

func runHotAlloc(pass *ProgramPass) error {
	cg := pass.Prog.CallGraph()

	roots := hotpathRoots(pass.Prog, cg)
	if len(roots) == 0 {
		return nil
	}

	reach, parent := cg.Reachable(roots...)

	// chainSuffix renders the witness call chain for a node, empty for a
	// root (the finding position already names it).
	chainSuffix := func(n *callgraph.Node) string {
		chain := callgraph.Chain(parent, n)
		if len(chain) <= 1 {
			return ""
		}
		parts := make([]string, len(chain))
		for i, c := range chain {
			parts[i] = shortFuncName(c)
		}
		return fmt.Sprintf(" (hot path: %s)", strings.Join(parts, " -> "))
	}

	seen := make(map[string]bool) // dedupe identical findings reached twice
	report := func(pos token.Pos, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		key := fmt.Sprintf("%v|%s", pass.Prog.Fset.Position(pos), msg)
		if seen[key] {
			return
		}
		seen[key] = true
		pass.Reportf(pos, "%s", msg)
	}

	for _, n := range reach {
		if n.Decl == nil {
			// External callee: allocation behavior is invisible. Allowlisted
			// packages are known-pure; everything else is a finding at the
			// edge that dragged it onto the hot path.
			pkg := ""
			if n.Func.Pkg() != nil {
				pkg = n.Func.Pkg().Path()
			}
			if hotAllocExternAllow[pkg] {
				continue
			}
			if pkg == "sync" {
				continue // flagged at the call site as a lock acquisition
			}
			e := parent[n]
			if e == nil {
				continue // an annotated root without a body cannot happen
			}
			what := "external function"
			if e.Kind == callgraph.Dynamic {
				what = "unresolved interface method"
			}
			report(e.Site,
				"hotpath calls %s %s, which cannot be proven allocation-free: inline it, move it off the hot path, or annotate //lint:ignore hotalloc with a rationale%s",
				what, n.Name(), chainSuffix(e.Caller))
			continue
		}

		in := pass.Prog.Info(n.SrcPath)
		if in == nil {
			continue
		}
		checkHotBody(report, in, n, chainSuffix(n))
	}
	return nil
}

// hotpathRoots resolves //lint:hotpath annotations to call-graph nodes. The
// directive attaches to the function declaration it precedes: on the line
// directly above the func keyword or anywhere inside the doc comment.
func hotpathRoots(prog *Program, cg *callgraph.Graph) []*callgraph.Node {
	var roots []*callgraph.Node
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			var hots []directive
			for _, d := range parseDirectives(pkg.Fset, f) {
				if d.verb == "hotpath" {
					hots = append(hots, d)
				}
			}
			if len(hots) == 0 {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				funcLine := pkg.Fset.Position(fd.Pos()).Line
				attached := false
				for _, d := range hots {
					if d.line == funcLine-1 {
						attached = true
						break
					}
					if fd.Doc != nil && d.pos >= fd.Doc.Pos() && d.pos <= fd.Doc.End() {
						attached = true
						break
					}
				}
				if !attached {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					if n := cg.Node(fn); n != nil {
						roots = append(roots, n)
					}
				}
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Name() < roots[j].Name() })
	return roots
}

// checkHotBody scans one reachable function body for allocating or locking
// constructs. Function literals are flagged at the literal (the closure
// value itself allocates) and not descended into.
func checkHotBody(report func(token.Pos, string, ...any), info *types.Info, n *callgraph.Node, chain string) {
	flag := func(pos token.Pos, what string) {
		report(pos,
			"hotpath function %s is not allocation-free: %s — hoist it into reusable scratch, restructure, or annotate //lint:ignore hotalloc with a rationale%s",
			shortFuncName(n), what, chain)
	}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			flag(x.Pos(), "function literal allocates a closure")
			return false
		case *ast.GoStmt:
			flag(x.Pos(), "go statement spawns a goroutine")
		case *ast.DeferStmt:
			flag(x.Pos(), "defer is not allowed on a hot path")
		case *ast.SelectStmt:
			flag(x.Pos(), "select performs channel operations")
			return false
		case *ast.SendStmt:
			flag(x.Pos(), "channel send blocks and allocates")
		case *ast.UnaryExpr:
			switch x.Op {
			case token.ARROW:
				flag(x.Pos(), "channel receive blocks")
			case token.AND:
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					flag(x.Pos(), "pointer composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			switch info.Types[x].Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				flag(x.Pos(), "slice or map composite literal allocates")
			}
		case *ast.BinaryExpr:
			if x.Op != token.ADD {
				return true
			}
			if tv, ok := info.Types[x]; ok && tv.Value == nil {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					flag(x.Pos(), "string concatenation allocates")
				}
			}
		case *ast.CallExpr:
			checkHotCall(flag, info, x)
		}
		return true
	})
}

// checkHotCall classifies one call on a hot path: allocating builtins,
// string/[]byte conversions, sync lock acquisition, and calls through
// function values. Static and interface calls are left to the call-graph
// walk, which scans the callee bodies (or flags external ones).
func checkHotCall(flag func(token.Pos, string), info *types.Info, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			switch id.Name {
			case "make":
				flag(call.Pos(), "make allocates")
			case "new":
				flag(call.Pos(), "new allocates")
			case "append":
				flag(call.Pos(), "append may grow and allocate")
			}
			return
		}
	}

	// Conversions: only the string<->[]byte/[]rune family copies.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			to := tv.Type.Underlying()
			if from, ok := info.Types[call.Args[0]]; ok {
				if stringBytesConversion(from.Type.Underlying(), to) {
					flag(call.Pos(), "conversion between string and []byte/[]rune copies and allocates")
				}
			}
		}
		return
	}

	fn := calleeFunc(info, call)
	if fn == nil {
		flag(call.Pos(), "call through a function value cannot be proven allocation-free")
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
		name := "sync." + fn.Name()
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, typ := namedRecv(sig.Recv().Type()); typ != "" {
				name = "sync." + typ + "." + fn.Name()
			}
		}
		flag(call.Pos(), fmt.Sprintf("acquires %s — hot paths must be lock-free", name))
	}
}

// stringBytesConversion reports whether a conversion between the two
// underlying types copies memory: string <-> []byte or []rune.
func stringBytesConversion(from, to types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isStr(to))
}
