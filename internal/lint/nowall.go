package lint

import (
	"go/ast"
	"go/types"
)

// pureComputePkgs must be deterministic functions of their inputs: the
// engine replays them during checkpoint resume and the property tests
// compare their outputs bit-for-bit across runs. A wall-clock read or a
// global (auto-seeded) rand source makes a resumed evaluation diverge from
// the original — exactly the silent nondeterminism the determinism contract
// forbids.
var pureComputePkgs = []string{
	"internal/stats",
	"internal/armodel",
	"internal/detect",
	"internal/core",
}

// seededConstructors are the math/rand(/v2) package-level functions that
// build an explicitly seeded generator — the approved pattern (the caller
// threads a *rand.Rand down, as internal/stats.NewRNG does).
var seededConstructors = map[string]bool{
	"New":        true,
	"NewPCG":     true,
	"NewSource":  true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

// NoWall flags time.Now and global math/rand state in pure compute
// packages. Randomness must come in through an explicitly seeded *rand.Rand
// parameter and time through a value, so that replay and resume are
// bit-exact.
var NoWall = &Analyzer{
	Name: "nowall",
	Doc: "flags time.Now and unseeded global math/rand usage in pure compute " +
		"packages (internal/stats, internal/armodel, internal/detect, internal/core)",
	Run: runNoWall,
}

func runNoWall(pass *Pass) error {
	if segmentsMatch(pass.Pkg.Path, pureComputePkgs) == "" {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch pn.Imported().Path() {
			case "time":
				if sel.Sel.Name == "Now" {
					pass.Reportf(sel.Pos(),
						"time.Now in pure compute package %s: wall-clock reads break checkpoint resume; take the time as a parameter (or annotate //lint:ignore nowall with a rationale)",
						pass.Pkg.Path)
				}
			case "math/rand", "math/rand/v2":
				// Only package-level *functions* touch the global auto-seeded
				// source; type references (rand.Rand in a signature) are the
				// approved dependency-injection pattern.
				if _, isFunc := info.Uses[sel.Sel].(*types.Func); !isFunc {
					return true
				}
				if seededConstructors[sel.Sel.Name] {
					return true
				}
				pass.Reportf(sel.Pos(),
					"global rand.%s in pure compute package %s: the process-global source is auto-seeded, so replay diverges; thread an explicitly seeded *rand.Rand (stats.NewRNG) instead (or annotate //lint:ignore nowall with a rationale)",
					sel.Sel.Name, pass.Pkg.Path)
			}
			return true
		})
	}
	return nil
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{CtxFirst, DetMapRange, DuraTaint, FloatEq, HotAlloc, LockHeld, LockOrder, NoWall}
}
