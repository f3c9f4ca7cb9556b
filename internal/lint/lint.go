// Package lint implements the repo's invariant-enforcing static analyzers
// and the driver that runs them (cmd/ratinglint). Each analyzer guards one
// of the system's headline guarantees — the engine's bit-exact determinism,
// the WAL's error discipline, the server's locking model — so that a
// regression fails the build instead of surfacing as a flaky property test.
// See DESIGN.md §9 for the invariant → analyzer mapping.
//
// The framework mirrors the golang.org/x/tools go/analysis API (Analyzer,
// Pass, Diagnostic) but is built entirely on the standard library: packages
// are located with `go list -export`, imports are satisfied from compiler
// export data, and target packages are type-checked from source. This keeps
// the module dependency-free.
//
// Intentional exceptions are annotated in source with a rationale:
//
//	//lint:ignore <analyzer> <why this is safe>
//	//lint:orderindependent <why iteration order cannot affect output>
//
// placed on the flagged line or the line above it (the last line of a doc
// comment works for whole-function findings). An annotation without a
// rationale is itself a finding: exceptions must be explained.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. Per-package analyzers set
// Run; whole-program (interprocedural) analyzers set RunProgram and are
// invoked once over the full load with a shared call graph. Exactly one of
// the two must be non-nil.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the analysis on one package.
	Run func(*Pass) error
	// RunProgram performs the analysis once over the whole program.
	RunProgram func(*ProgramPass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// directivePrefix introduces suppression annotations. Distinct from the
// staticcheck convention only in the analyzer names it accepts.
const directivePrefix = "//lint:"

// directive is one parsed //lint: annotation.
type directive struct {
	verb      string // "ignore" or "orderindependent"
	analyzer  string // target analyzer for "ignore"; empty otherwise
	rationale string
	line      int
	file      string
	pos       token.Pos
}

// parseDirectives extracts //lint: annotations from a file.
func parseDirectives(fset *token.FileSet, f *ast.File) []directive {
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			// Strip a trailing analysistest-style expectation marker so the
			// fixtures can assert on diagnostics at directive lines.
			if i := strings.Index(text, "// want"); i >= 0 {
				text = text[:i]
			}
			fields := strings.Fields(text)
			if len(fields) == 0 {
				continue
			}
			d := directive{verb: fields[0], pos: c.Pos()}
			rest := fields[1:]
			if d.verb == "ignore" && len(rest) > 0 {
				d.analyzer = rest[0]
				rest = rest[1:]
			}
			d.rationale = strings.Join(rest, " ")
			p := fset.Position(c.Pos())
			d.line, d.file = p.Line, p.Filename
			out = append(out, d)
		}
	}
	return out
}

// matches reports whether the directive suppresses a diagnostic from the
// named analyzer. "orderindependent" is a dedicated spelling for
// detmaprange, the analyzer it exists for.
func (d directive) matches(analyzer string) bool {
	switch d.verb {
	case "ignore":
		return d.analyzer == analyzer
	case "orderindependent":
		return analyzer == "detmaprange"
	}
	return false
}

// runAnalyzers executes every analyzer — per-package ones over each
// package, whole-program ones once over a shared Program with a cached
// call graph — and resolves suppression directives. Diagnostics come back
// sorted by position. A matching directive with no rationale does not
// suppress — it is converted into its own finding, so silent exceptions
// cannot accumulate. The returned directives report, for every suppression
// annotation in the program, whether it suppressed anything — the substrate
// of the stale-suppression audit.
func runAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []directiveUse, error) {
	var raw []Diagnostic
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = NewProgram(pkgs)
		}
		pass := &ProgramPass{Analyzer: a, Prog: prog, diags: &raw}
		if err := a.RunProgram(pass); err != nil {
			return nil, nil, fmt.Errorf("lint: %s: %v", a.Name, err)
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &raw}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}

	// index directives by file:line for the suppression lookup
	type key struct {
		file string
		line int
	}
	var uses []directiveUse
	dirs := make(map[key][]*directiveUse)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range parseDirectives(pkg.Fset, f) {
				uses = append(uses, directiveUse{directive: d})
			}
		}
	}
	for i := range uses {
		d := uses[i].directive
		dirs[key{d.file, d.line}] = append(dirs[key{d.file, d.line}], &uses[i])
	}

	var out []Diagnostic
	for _, diag := range raw {
		suppressed := false
		// A directive applies on the flagged line or in the contiguous run
		// of directive lines above it, so two analyzers flagging the same
		// statement can each be suppressed by stacked annotations.
		lines := []int{diag.Pos.Line}
		for l := diag.Pos.Line - 1; len(dirs[key{diag.Pos.Filename, l}]) > 0; l-- {
			lines = append(lines, l)
		}
		for _, line := range lines {
			for _, du := range dirs[key{diag.Pos.Filename, line}] {
				if !du.matches(diag.Analyzer) {
					continue
				}
				if du.rationale == "" {
					out = append(out, Diagnostic{
						Analyzer: diag.Analyzer,
						Pos:      token.Position{Filename: du.file, Line: du.line, Column: 1},
						Message:  fmt.Sprintf("//lint:%s directive needs a rationale", du.verb),
					})
				}
				suppressed = true
				du.used = true
			}
		}
		if !suppressed {
			out = append(out, diag)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, uses, nil
}

// directiveUse is one suppression directive plus whether it suppressed at
// least one raw diagnostic during the run.
type directiveUse struct {
	directive
	used bool
}

// Run loads the packages matched by patterns (relative to dir) and applies
// the analyzers, returning unsuppressed diagnostics sorted by position.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	diags, _, err := runAnalyzers(pkgs, analyzers)
	return diags, err
}

// Audit runs the analyzers in inventory mode over the loaded packages and
// reports suppression hygiene instead of invariant findings: every
// //lint:ignore or //lint:orderindependent directive with an empty
// rationale, with an unknown verb, or that no longer suppresses any
// diagnostic (a stale exception that outlived the code it excused) becomes
// an "audit" finding. Exit-code semantics in cmd/ratinglint match the
// normal run: findings mean a nonzero exit.
func Audit(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	_, uses, err := runAnalyzers(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	report := func(d directive, format string, args ...any) {
		out = append(out, Diagnostic{
			Analyzer: "audit",
			Pos:      token.Position{Filename: d.file, Line: d.line, Column: 1},
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, du := range uses {
		switch du.verb {
		case "ignore", "orderindependent":
			if du.rationale == "" {
				report(du.directive, "//lint:%s directive has no rationale: exceptions must be explained", du.verb)
				continue
			}
			if !du.used {
				name := du.verb
				if du.analyzer != "" {
					name += " " + du.analyzer
				}
				report(du.directive, "stale //lint:%s directive: it no longer suppresses any finding — remove it or fix the drift", name)
			}
		case "hotpath":
			// An assertion checked by hotalloc, not a suppression; nothing
			// to audit beyond what the analyzer itself enforces.
		default:
			report(du.directive, "unknown //lint:%s directive: valid verbs are ignore, orderindependent, hotpath", du.verb)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out, nil
}

// pathHasSegments reports whether want ("internal/engine") occurs in path
// ("repro/internal/engine", "repro/internal/lint/testdata/x/internal/engine")
// as a consecutive run of whole path segments — substring matching would
// let "internal/engineroom" slip through.
func pathHasSegments(path, want string) bool {
	segs := strings.Split(path, "/")
	wantSegs := strings.Split(want, "/")
	for i := 0; i+len(wantSegs) <= len(segs); i++ {
		match := true
		for j, w := range wantSegs {
			if segs[i+j] != w {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// segmentsMatch returns the first of wants that occurs in path per
// pathHasSegments, or "" when none does. Lock classes use the match as the
// repo-relative package (".../testdata/lockorder/internal/store" →
// "internal/store"), so fixture packages mirror production classes.
func segmentsMatch(path string, wants []string) string {
	for _, w := range wants {
		if pathHasSegments(path, w) {
			return w
		}
	}
	return ""
}

// inspectSkippingFuncLits walks node (a function body, statement or
// expression) like ast.Inspect, skipping function-literal bodies.
func inspectSkippingFuncLits(node ast.Node, visit func(n ast.Node)) {
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// spans is a set of source ranges, such as a body's defer statements.
type spans [][2]token.Pos

// spansOf returns the source ranges of the T nodes under root.
func spansOf[T ast.Node](root ast.Node) spans {
	var out spans
	ast.Inspect(root, func(n ast.Node) bool {
		if x, ok := n.(T); ok {
			out = append(out, [2]token.Pos{x.Pos(), x.End()})
		}
		return true
	})
	return out
}

// has reports whether p lies inside one of the ranges.
func (s spans) has(p token.Pos) bool {
	for _, r := range s {
		if p >= r[0] && p < r[1] {
			return true
		}
	}
	return false
}
