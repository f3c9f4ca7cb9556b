package lint

import (
	"go/ast"
	"go/types"
)

// determinismCriticalPkgs are the packages whose outputs must be bit-exact
// regardless of scheduling: the engine's P-scores are checkpointed, resumed,
// and compared across worker widths, so any map-iteration-order dependence
// is a silent correctness bug (see DESIGN.md §8 and §9).
var determinismCriticalPkgs = []string{
	"internal/engine",
	"internal/agg",
	"internal/epoch",
	"internal/trust",
}

// DetMapRange flags `range` over a map in determinism-critical packages.
// Go randomizes map iteration order, so any fold over a map range is
// order-dependent unless the loop body commutes (integer count merges) or
// the results are sorted before use.
//
// Two escapes exist: collect-then-sort — a sort.*/slices.Sort* call later
// in the same function is taken as evidence the iteration feeds a sorted
// collection — and an explicit `//lint:orderindependent <rationale>`
// annotation for genuinely commutative folds.
var DetMapRange = &Analyzer{
	Name: "detmaprange",
	Doc: "flags range-over-map in determinism-critical packages " +
		"(internal/engine, internal/agg, internal/epoch, internal/trust) " +
		"unless the results are sorted or the loop is annotated //lint:orderindependent",
	Run: runDetMapRange,
}

func runDetMapRange(pass *Pass) error {
	if segmentsMatch(pass.Pkg.Path, determinismCriticalPkgs) == "" {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := info.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if sortCallAfter(info, fn.Body, rng) {
					return true
				}
				pass.Reportf(rng.For,
					"range over map %s in determinism-critical package %s: iteration order is randomized; sort the keys first or annotate //lint:orderindependent with a rationale",
					types.ExprString(rng.X), pass.Pkg.Path)
				return true
			})
		}
	}
	return nil
}

// sortCallAfter reports whether a sort.* or slices.Sort* call occurs in
// body lexically after pos — the collect-then-sort idiom (append map
// entries to a slice, sort it, then use it deterministically).
func sortCallAfter(info *types.Info, body *ast.BlockStmt, pos ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos.End() {
			return true
		}
		if pkg, name := calleePkgFunc(info, call); pkg == "sort" ||
			(pkg == "slices" && len(name) >= 4 && name[:4] == "Sort") {
			found = true
			return false
		}
		return true
	})
	return found
}

// calleePkgFunc resolves a call of the form pkgname.Func to its package
// path and function name ("", "" when the callee is anything else).
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}
