package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"

	"repro/internal/lint/callgraph"
	"repro/internal/lint/cfg"
)

// Program is the whole-program view handed to interprocedural analyzers:
// every loaded package and its type info indexed by import path, plus what
// the analyzers share instead of rebuilding — a lazily built call graph,
// one control-flow graph per function body and the lock model both lock
// analyzers read.
type Program struct {
	// Pkgs holds the loaded packages sorted by import path.
	Pkgs []*Package
	// Fset is the file set shared by every package in the program.
	Fset *token.FileSet

	info map[string]*types.Info

	cgOnce sync.Once
	cg     *callgraph.Graph

	locksOnce sync.Once
	locks     *lockModel

	mu   sync.Mutex // guards cfgs
	cfgs map[*ast.BlockStmt]*cfg.Graph
}

// NewProgram assembles a Program from loaded packages. All packages must
// share one token.FileSet (the loader guarantees this).
func NewProgram(pkgs []*Package) *Program {
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	p := &Program{
		Pkgs: sorted,
		info: make(map[string]*types.Info, len(sorted)),
		cfgs: make(map[*ast.BlockStmt]*cfg.Graph),
	}
	for _, pkg := range sorted {
		p.info[pkg.Path] = pkg.Info
	}
	if len(sorted) > 0 {
		p.Fset = sorted[0].Fset
	}
	return p
}

// Info returns the type info of the loaded package with the given import
// path, or nil when the program does not hold its source.
func (p *Program) Info(path string) *types.Info { return p.info[path] }

// CFG returns the control-flow graph of a function body, built on first
// use and shared by every analyzer afterwards.
func (p *Program) CFG(body *ast.BlockStmt) *cfg.Graph {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.cfgs[body]
	if !ok {
		g = cfg.New(body)
		p.cfgs[body] = g
	}
	return g
}

// CallGraph builds the program's CHA call graph on first use and returns
// the cached graph afterwards — every interprocedural analyzer shares one
// build.
func (p *Program) CallGraph() *callgraph.Graph {
	p.cgOnce.Do(func() {
		srcs := make([]*callgraph.Source, len(p.Pkgs))
		for i, pkg := range p.Pkgs {
			srcs[i] = &callgraph.Source{
				Path:  pkg.Path,
				Files: pkg.Files,
				Info:  pkg.Info,
				Types: pkg.Types,
			}
		}
		p.cg = callgraph.Build(p.Fset, srcs)
	})
	return p.cg
}

// lockModel builds the program's lock model (lock classes, per-function
// summaries and held-set dataflow) on first use; lockorder and lockheld
// both read it.
func (p *Program) lockModel() *lockModel {
	p.locksOnce.Do(func() { p.locks = buildLockModel(p) })
	return p.locks
}

// A ProgramPass provides one whole-program analyzer with the Program and a
// diagnostic sink; the suppression pipeline downstream is identical to the
// per-package one.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}
