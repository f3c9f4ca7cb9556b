package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/callgraph"
	"repro/internal/lint/cfg"
)

// lockOrderPkgs are the packages whose mutexes participate in the global
// lock-acquisition graph: the coordinator (internal/server), the sharded
// store's topology/gate/state locks (internal/store), and the trust layer
// (internal/trust).
var lockOrderPkgs = []string{"internal/server", "internal/store", "internal/trust"}

// shortHeldLocks are the lock classes documented as short-critical-section
// state mutexes: no call that blocks for disk- or compute-scale durations
// may run while one is held ("fsync never runs under the state mutex").
// Store.mu is deliberately absent: it is the topology RWMutex, and its read
// side is held across whole submissions — fsync included — by design;
// readers do not serialize, and the write side is taken only on the rare
// topology changes (AddProduct, Load, Close).
var shortHeldLocks = map[string]bool{
	"internal/store.shard.mu": true,
}

// blockingUnderMu maps a callee package (matched as whole path segments) to
// the method names whose calls must not run under a short-held lock: they
// fsync or evaluate, and holding a state mutex across them turns one slow
// disk into a stalled shard.
var blockingUnderMu = map[string]map[string]bool{
	"internal/wal":    {"Append": true, "AppendAck": true, "Sync": true, "Compact": true},
	"internal/engine": {"Evaluate": true, "Resume": true},
}

// lockClass identifies one mutex field: the package (normalized to its
// repo-relative segments so fixture packages mirror production classes),
// the struct type, and the field name. Every instance of the struct shares
// the class — a per-instance order (e.g. ascending shard index) is exactly
// what the same-class nesting diagnostic asks to be documented.
type lockClass struct {
	pkg, typ, field string
}

func (c lockClass) String() string { return c.pkg + "." + c.typ + "." + c.field }

// LockOrder is the whole-program lock analyzer: it derives the global
// lock-acquisition graph across internal/server, internal/store, and
// internal/trust — an edge A→B means some execution path acquires B while
// holding A, where held-sets propagate through an intraprocedural CFG
// dataflow and acquisitions propagate through the CHA call graph — and
// reports (1) any cycle between distinct lock classes as a potential
// deadlock, (2) same-class nested acquisition (two instances of one class
// held at once), which is deadlock-free only under a documented instance
// order, and (3) any call that is, or may transitively reach, a WAL fsync
// or an engine evaluation (blockingUnderMu) while a short-critical-section
// state mutex is held.
//
// Soundness trade-offs (DESIGN.md §13): function-literal bodies and
// deferred calls are excluded from held-set propagation, calls through
// plain function values are unresolved, and held-sets are may-sets over
// CFG paths — the analyzer over-approximates edges and under-approximates
// defer-time behavior. Intentional exceptions are annotated
// `//lint:ignore lockorder <rationale>` on the reported line.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "derives the whole-program lock-acquisition graph over internal/server, internal/store, " +
		"and internal/trust; reports lock-order cycles, undocumented same-class nesting, and " +
		"blocking calls (WAL fsync, engine evaluation) reached while a state mutex is held",
	RunProgram: runLockOrder,
}

// lockOrderFacts is the fact bundle LockOrder exports for composition:
// the serialized lock graph and the set of functions that may block.
type lockOrderFacts struct {
	// Edges holds "A -> B" lines for every lock-graph edge, sorted.
	Edges []string
	// MayBlock holds the full names of functions that may transitively
	// fsync the WAL or run an engine evaluation, sorted.
	MayBlock []string
	// MayAcquire maps function full names to the sorted lock classes they
	// may transitively acquire.
	MayAcquire map[string][]string
}

// lockEdge is one lock-graph edge with its first witness.
type lockEdge struct {
	from, to lockClass
	site     token.Pos // the acquisition or call site that created the edge
	fn       string    // function containing the witness site
	via      string    // optional call chain description
}

type lockOrderState struct {
	prog    *Program
	cg      *callgraph.Graph
	classes map[lockClass]bool

	// direct per-function summaries
	directAcq map[*callgraph.Node][]lockClass
	blockBase map[*callgraph.Node]string // node → description of the blocking base call

	// memoized transitive summaries
	transAcq   map[*callgraph.Node][]lockClass
	transBlock map[*callgraph.Node]string // "" = does not block; else witness description
}

func runLockOrder(pass *ProgramPass) error {
	st := &lockOrderState{
		prog:       pass.Prog,
		cg:         pass.Prog.CallGraph(),
		classes:    make(map[lockClass]bool),
		directAcq:  make(map[*callgraph.Node][]lockClass),
		blockBase:  make(map[*callgraph.Node]string),
		transAcq:   make(map[*callgraph.Node][]lockClass),
		transBlock: make(map[*callgraph.Node]string),
	}
	st.discoverClasses()
	if len(st.classes) == 0 {
		return nil
	}
	st.summarize()

	var edges []*lockEdge
	var selfNest []*lockEdge
	for _, n := range st.cg.Funcs {
		if n.Decl == nil {
			continue
		}
		e, s := st.analyzeFunc(pass, n)
		edges = append(edges, e...)
		selfNest = append(selfNest, s...)
	}

	st.report(pass, edges, selfNest)
	st.exportFacts(pass, edges)
	return nil
}

// discoverClasses finds every sync.Mutex/RWMutex field of a named struct
// type declared in a lock-order package.
func (st *lockOrderState) discoverClasses() {
	for _, pkg := range st.prog.Pkgs {
		seg, ok := normalizePkg(pkg.Path, lockOrderPkgs)
		if !ok {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			strct, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < strct.NumFields(); i++ {
				f := strct.Field(i)
				if fp, fn := namedRecv(f.Type()); fp == "sync" && (fn == "Mutex" || fn == "RWMutex") {
					st.classes[lockClass{seg, name, f.Name()}] = true
				}
			}
		}
	}
}

// normalizePkg maps a full package path to the repo-relative segment run it
// matches (e.g. ".../testdata/lockorder/internal/store" → "internal/store").
func normalizePkg(path string, wants []string) (string, bool) {
	for _, w := range wants {
		if pathHasSegments(path, w) {
			return w, true
		}
	}
	return "", false
}

// classOf resolves a selector expression x.field (the x in x.field.Lock())
// to a lock class, if the field belongs to a discovered class.
func (st *lockOrderState) classOf(info *types.Info, sel *ast.SelectorExpr) (lockClass, bool) {
	var recvType types.Type
	var fieldName string
	if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.FieldVal {
		recvType = selection.Recv()
		fieldName = selection.Obj().Name()
	} else {
		return lockClass{}, false
	}
	pkgPath, typName := namedRecv(recvType)
	if pkgPath == "" {
		return lockClass{}, false
	}
	seg, ok := normalizePkg(pkgPath, lockOrderPkgs)
	if !ok {
		return lockClass{}, false
	}
	c := lockClass{seg, typName, fieldName}
	if !st.classes[c] {
		return lockClass{}, false
	}
	return c, true
}

// lock events extracted from one CFG node
const (
	loAcquire = iota
	loRelease
	loCall
)

type loEvent struct {
	pos   token.Pos
	kind  int
	class lockClass       // for acquire/release
	edge  *callgraph.Edge // for call (resolved call edge)
}

// summarize computes each declared function's direct lock acquisitions and
// direct blocking-base calls.
func (st *lockOrderState) summarize() {
	pkgInfo := st.infoIndex()
	for _, n := range st.cg.Funcs {
		if n.Decl == nil {
			continue
		}
		info := pkgInfo[n.SrcPath]
		if info == nil {
			continue
		}
		inspectNodeSkippingFuncLits(n.Decl.Body, func(node ast.Node, inDefer bool) {
			call, ok := node.(*ast.CallExpr)
			if !ok || inDefer {
				return
			}
			if c, _, ok := st.muCall(info, call); ok {
				st.directAcq[n] = appendClass(st.directAcq[n], c)
				return
			}
			if desc := blockingBase(calleeFunc(info, call)); desc != "" {
				if _, have := st.blockBase[n]; !have {
					st.blockBase[n] = desc
				}
			}
		})
	}
}

func appendClass(cs []lockClass, c lockClass) []lockClass {
	for _, x := range cs {
		if x == c {
			return cs
		}
	}
	return append(cs, c)
}

// infoIndex maps package import paths to their type info.
func (st *lockOrderState) infoIndex() map[string]*types.Info {
	m := make(map[string]*types.Info, len(st.prog.Pkgs))
	for _, pkg := range st.prog.Pkgs {
		m[pkg.Path] = pkg.Info
	}
	return m
}

// muCall classifies call as an acquisition (Lock/RLock) or release
// (Unlock/RUnlock) of a discovered lock class. The bool result reports
// whether it is a mutex call at all; acquire distinguishes the direction.
func (st *lockOrderState) muCall(info *types.Info, call *ast.CallExpr) (lockClass, bool, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, false, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return lockClass{}, false, false
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, false, false
	}
	c, ok := st.classOf(info, field)
	if !ok {
		return lockClass{}, false, false
	}
	return c, acquire, true
}

// blockingBase reports a non-empty description ("wal.Sync") when callee is
// one of the blocking base functions (WAL fsync paths, engine evaluations)
// listed in blockingUnderMu.
func blockingBase(callee *types.Func) string {
	if callee == nil || callee.Pkg() == nil {
		return ""
	}
	for pkgSeg, names := range blockingUnderMu {
		if names[callee.Name()] && pathHasSegments(callee.Pkg().Path(), pkgSeg) {
			return pkgSeg[strings.LastIndexByte(pkgSeg, '/')+1:] + "." + callee.Name()
		}
	}
	return ""
}

// mayAcquire returns the lock classes reachable from n through the call
// graph (n's own direct acquisitions included).
func (st *lockOrderState) mayAcquire(n *callgraph.Node) []lockClass {
	if cs, ok := st.transAcq[n]; ok {
		return cs
	}
	reach, _ := st.cg.Reachable(n)
	var out []lockClass
	for _, r := range reach {
		for _, c := range st.directAcq[r] {
			out = appendClass(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	st.transAcq[n] = out
	return out
}

// mayBlock returns a witness description when n is a blocking base
// ("wal.Sync") or may transitively reach a blocking base call ("wal.Sync
// (via shard.checkpoint → shard.flush)"), else "".
func (st *lockOrderState) mayBlock(n *callgraph.Node) string {
	if d, ok := st.transBlock[n]; ok {
		return d
	}
	if d := blockingBase(n.Func); d != "" {
		st.transBlock[n] = d
		return d
	}
	reach, parent := st.cg.Reachable(n)
	desc := ""
	for _, r := range reach {
		base, ok := st.blockBase[r]
		if !ok {
			continue
		}
		chain := callgraph.Chain(parent, r)
		if len(chain) > 1 {
			names := make([]string, 0, len(chain))
			for _, c := range chain {
				names = append(names, shortFuncName(c))
			}
			desc = base + " (via " + strings.Join(names, " → ") + ")"
		} else {
			desc = base
		}
		break // Reachable order is deterministic; first witness wins
	}
	st.transBlock[n] = desc
	return desc
}

// shortFuncName renders a node as Type.Method or pkg.Func without the full
// import path, for readable chains.
func shortFuncName(n *callgraph.Node) string {
	fn := n.Func
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		_, typ := namedRecv(sig.Recv().Type())
		if typ != "" {
			return typ + "." + fn.Name()
		}
	}
	return fn.Name()
}

// analyzeFunc runs the CFG may-held dataflow over one function and returns
// the lock-graph edges and same-class nesting witnesses it contributes,
// reporting blocking-under-short-lock violations directly.
func (st *lockOrderState) analyzeFunc(pass *ProgramPass, n *callgraph.Node) (edges, selfNest []*lockEdge) {
	info := st.infoIndex()[n.SrcPath]
	if info == nil {
		return nil, nil
	}
	g := cfg.New(n.Decl.Body)
	events := st.blockEvents(info, n, g)

	// May-held dataflow to fixpoint: state is the set of classes possibly
	// held entering each block; union over predecessors, loop back-edges
	// included, so an acquisition inside a loop sees itself held on the
	// second iteration.
	in := make([]map[lockClass]bool, len(g.Blocks))
	apply := func(state map[lockClass]bool, evs []loEvent, emit bool) map[lockClass]bool {
		for _, ev := range evs {
			switch ev.kind {
			case loAcquire:
				if emit {
					if state[ev.class] {
						selfNest = append(selfNest, &lockEdge{from: ev.class, to: ev.class, site: ev.pos, fn: shortFuncName(n)})
					}
					for c := range state {
						if c != ev.class {
							edges = append(edges, &lockEdge{from: c, to: ev.class, site: ev.pos, fn: shortFuncName(n)})
						}
					}
				}
				state = cloneSet(state)
				state[ev.class] = true
			case loRelease:
				state = cloneSet(state)
				delete(state, ev.class)
			case loCall:
				if emit && len(state) > 0 {
					st.callUnderLocks(pass, n, ev, state, &edges, &selfNest)
				}
				// A lock-helper call transfers its direct acquisitions or
				// releases into the caller's held-set: server's
				// freshRLock() returns holding Service.mu, and a matching
				// unlock helper would release it. Only helpers whose own
				// body directly locks count, and only when the name says
				// which way ("...Lock"/"...Unlock", case-sensitive).
				if direct := st.directAcq[ev.edge.Callee]; len(direct) > 0 {
					name := ev.edge.Callee.Func.Name()
					if strings.HasSuffix(name, "Unlock") {
						state = cloneSet(state)
						for _, c := range direct {
							delete(state, c)
						}
					} else if strings.HasSuffix(name, "Lock") {
						state = cloneSet(state)
						for _, c := range direct {
							state[c] = true
						}
					}
				}
			}
		}
		return state
	}

	// Fixpoint.
	in[0] = map[lockClass]bool{}
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			if in[b.Index] == nil {
				continue
			}
			out := apply(in[b.Index], events[b.Index], false)
			for _, s := range b.Succs {
				merged, grew := mergeSet(in[s.Index], out)
				if grew {
					in[s.Index] = merged
					changed = true
				}
			}
		}
	}
	// Report pass with stable in-states.
	for _, b := range g.Blocks {
		if in[b.Index] == nil {
			continue // unreachable block
		}
		apply(in[b.Index], events[b.Index], true)
	}
	return edges, selfNest
}

func cloneSet(s map[lockClass]bool) map[lockClass]bool {
	out := make(map[lockClass]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// mergeSet unions src into dst (copy-on-grow) and reports growth. A nil dst
// means "not yet visited" and always grows.
func mergeSet(dst, src map[lockClass]bool) (map[lockClass]bool, bool) {
	if dst == nil {
		return cloneSet(src), true
	}
	grew := false
	for k := range src {
		if !dst[k] {
			if !grew {
				dst = cloneSet(dst)
				grew = true
			}
			dst[k] = true
		}
	}
	return dst, grew
}

// blockEvents extracts the ordered lock/call events of every CFG block.
func (st *lockOrderState) blockEvents(info *types.Info, n *callgraph.Node, g *cfg.Graph) [][]loEvent {
	// Resolve call expressions to their graph edges once, by site.
	edgeAt := make(map[token.Pos][]*callgraph.Edge)
	for _, e := range n.Out {
		edgeAt[e.Site] = append(edgeAt[e.Site], e)
	}
	events := make([][]loEvent, len(g.Blocks))
	for _, b := range g.Blocks {
		var evs []loEvent
		for _, node := range b.Nodes {
			inspectNodeSkippingFuncLits(node, func(x ast.Node, inDefer bool) {
				call, ok := x.(*ast.CallExpr)
				if !ok || inDefer {
					return
				}
				if c, acquire, ok := st.muCall(info, call); ok {
					kind := loRelease
					if acquire {
						kind = loAcquire
					}
					evs = append(evs, loEvent{pos: call.Pos(), kind: kind, class: c})
					return
				}
				for _, e := range edgeAt[call.Pos()] {
					evs = append(evs, loEvent{pos: call.Pos(), kind: loCall, edge: e})
				}
			})
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
		events[b.Index] = evs
	}
	return events
}

// inspectNodeSkippingFuncLits walks node (a function body, statement or
// expression), skipping function-literal bodies and flagging nodes inside
// defer statements.
func inspectNodeSkippingFuncLits(node ast.Node, visit func(n ast.Node, inDefer bool)) {
	var deferSpans [][2]token.Pos
	ast.Inspect(node, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferSpans = append(deferSpans, [2]token.Pos{d.Pos(), d.End()})
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return true
	})
	inDefer := func(p token.Pos) bool {
		for _, s := range deferSpans {
			if p >= s[0] && p < s[1] {
				return true
			}
		}
		return false
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n, inDefer(n.Pos()))
		}
		return true
	})
}

// callUnderLocks handles a resolved call made while locks are held: it
// contributes held→acquired edges from the callee's transitive summary and
// reports blocking calls under a short-critical-section lock.
func (st *lockOrderState) callUnderLocks(pass *ProgramPass, n *callgraph.Node, ev loEvent, held map[lockClass]bool, edges, selfNest *[]*lockEdge) {
	callee := ev.edge.Callee
	// Lock-helper calls are the caller's own acquisition/release, not a
	// nested critical section; the dataflow transfer handles them.
	if name := callee.Func.Name(); strings.HasSuffix(name, "Lock") || strings.HasSuffix(name, "Unlock") {
		if len(st.directAcq[callee]) > 0 {
			return
		}
	}
	for _, acquired := range st.mayAcquire(callee) {
		for h := range held {
			if h == acquired {
				*selfNest = append(*selfNest, &lockEdge{
					from: h, to: acquired, site: ev.pos, fn: shortFuncName(n), via: shortFuncName(callee),
				})
				continue
			}
			*edges = append(*edges, &lockEdge{
				from: h, to: acquired, site: ev.pos, fn: shortFuncName(n),
				via: shortFuncName(callee),
			})
		}
	}
	hasShort := false
	for h := range held {
		if shortHeldLocks[h.String()] {
			hasShort = true
			break
		}
	}
	if !hasShort {
		return
	}
	if desc := st.mayBlock(callee); desc != "" {
		short := sortedShort(held)
		pass.Reportf(ev.pos,
			"method %s calls %s while holding %s: WAL fsyncs and engine evaluations must run outside short-critical-section state mutexes — restructure, or annotate //lint:ignore lockorder with a rationale",
			shortFuncName(n), desc, strings.Join(short, ", "))
	}
}

func sortedShort(held map[lockClass]bool) []string {
	var out []string
	for h := range held {
		if shortHeldLocks[h.String()] {
			out = append(out, h.String())
		}
	}
	sort.Strings(out)
	return out
}

// report deduplicates edges, detects cycles among distinct classes, and
// emits the self-nesting diagnostics.
func (st *lockOrderState) report(pass *ProgramPass, edges, selfNest []*lockEdge) {
	// Deduplicate same-class nesting by site.
	seenNest := make(map[token.Pos]bool)
	for _, e := range selfNest {
		if seenNest[e.site] {
			continue
		}
		seenNest[e.site] = true
		where := "in " + e.fn
		if e.via != "" {
			where += ", via " + e.via
		}
		pass.Reportf(e.site,
			"lock class %s: a second instance is acquired while one is already held (%s): self-deadlock on the same instance, and safe across instances only under a documented order — annotate //lint:ignore lockorder with the rationale",
			e.from, where)
	}

	// First witness per (from, to) pair, deterministic by position.
	type pair struct{ from, to lockClass }
	witness := make(map[pair]*lockEdge)
	for _, e := range edges {
		if e.from == e.to {
			continue // same-class handled above (intra-function); via-call self edges covered by cycle check below
		}
		p := pair{e.from, e.to}
		w, ok := witness[p]
		if !ok || posLess(pass.Prog.Fset, e.site, w.site) {
			witness[p] = e
		}
	}

	// Build adjacency and find cycles with a deterministic DFS.
	adj := make(map[lockClass][]lockClass)
	var nodes []lockClass
	for p := range witness {
		adj[p.from] = append(adj[p.from], p.to)
	}
	for c := range adj {
		nodes = append(nodes, c)
		sort.Slice(adj[c], func(i, j int) bool { return adj[c][i].String() < adj[c][j].String() })
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].String() < nodes[j].String() })

	reported := make(map[string]bool)
	for _, start := range nodes {
		cycle := findCycle(adj, start)
		if cycle == nil {
			continue
		}
		key := cycleKey(cycle)
		if reported[key] {
			continue
		}
		reported[key] = true
		var parts []string
		for i := 0; i < len(cycle); i++ {
			from, to := cycle[i], cycle[(i+1)%len(cycle)]
			w := witness[pair{from, to}]
			parts = append(parts, fmt.Sprintf("%s → %s (%s, in %s)", from, to, pass.Prog.Fset.Position(w.site), w.fn))
		}
		w := witness[pair{cycle[0], cycle[1%len(cycle)]}]
		pass.Reportf(w.site,
			"lock-order cycle — potential deadlock: %s; establish one global order or annotate //lint:ignore lockorder with the reason the cycle cannot deadlock",
			strings.Join(parts, "; "))
	}
}

func posLess(fset *token.FileSet, a, b token.Pos) bool {
	pa, pb := fset.Position(a), fset.Position(b)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Offset < pb.Offset
}

// findCycle returns the first cycle through start (start included) found by
// a deterministic DFS, or nil.
func findCycle(adj map[lockClass][]lockClass, start lockClass) []lockClass {
	var path []lockClass
	onPath := make(map[lockClass]bool)
	visited := make(map[lockClass]bool)
	var dfs func(c lockClass) []lockClass
	dfs = func(c lockClass) []lockClass {
		path = append(path, c)
		onPath[c] = true
		visited[c] = true
		for _, next := range adj[c] {
			if next == start && len(path) > 0 {
				out := append([]lockClass(nil), path...)
				return out
			}
			if onPath[next] || visited[next] {
				continue
			}
			if cyc := dfs(next); cyc != nil {
				return cyc
			}
		}
		path = path[:len(path)-1]
		onPath[c] = false
		return nil
	}
	return dfs(start)
}

// cycleKey canonicalizes a cycle (rotation-invariant) for dedup.
func cycleKey(cycle []lockClass) string {
	min := 0
	for i := range cycle {
		if cycle[i].String() < cycle[min].String() {
			min = i
		}
	}
	var parts []string
	for i := 0; i < len(cycle); i++ {
		parts = append(parts, cycle[(min+i)%len(cycle)].String())
	}
	return strings.Join(parts, "→")
}

// exportFacts publishes the lock graph and blocking summaries.
func (st *lockOrderState) exportFacts(pass *ProgramPass, edges []*lockEdge) {
	facts := lockOrderFacts{MayAcquire: make(map[string][]string)}
	seen := make(map[string]bool)
	for _, e := range edges {
		line := e.from.String() + " -> " + e.to.String()
		if !seen[line] {
			seen[line] = true
			facts.Edges = append(facts.Edges, line)
		}
	}
	sort.Strings(facts.Edges)
	for _, n := range st.cg.Funcs {
		if n.Decl == nil {
			continue
		}
		if st.mayBlock(n) != "" {
			facts.MayBlock = append(facts.MayBlock, n.Name())
		}
		if acq := st.mayAcquire(n); len(acq) > 0 {
			var cs []string
			for _, c := range acq {
				cs = append(cs, c.String())
			}
			facts.MayAcquire[n.Name()] = cs
		}
	}
	sort.Strings(facts.MayBlock)
	pass.ExportFact(facts)
}
