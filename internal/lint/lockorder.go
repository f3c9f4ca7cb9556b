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
// The held-sets come from the program's shared lock model
// (Program.lockModel), which lockheld reads too. Soundness trade-offs
// (DESIGN.md §13): function-literal bodies and deferred calls are excluded
// from lock-class propagation, calls through plain function values are
// unresolved, and held-sets are may-sets over CFG paths — the analyzer
// over-approximates edges and under-approximates defer-time behavior.
// Intentional exceptions are annotated `//lint:ignore lockorder
// <rationale>` on the reported line.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "derives the whole-program lock-acquisition graph over internal/server, internal/store, " +
		"and internal/trust; reports lock-order cycles, undocumented same-class nesting, and " +
		"blocking calls (WAL fsync, engine evaluation) reached while a state mutex is held",
	RunProgram: runLockOrder,
}

// lockEdge is one lock-graph edge with its first witness.
type lockEdge struct {
	from, to lockClass
	site     token.Pos // the acquisition or call site that created the edge
	fn       string    // function containing the witness site
	via      string    // optional call chain description
}

func runLockOrder(pass *ProgramPass) error {
	m := pass.Prog.lockModel()
	if len(m.classes) == 0 {
		return nil
	}
	var edges, selfNest []*lockEdge
	add := func(e *lockEdge) {
		if e.from == e.to {
			selfNest = append(selfNest, e)
		} else {
			edges = append(edges, e)
		}
	}
	for _, n := range m.cg.Funcs {
		if f := m.flows[n]; f != nil {
			m.checkFunc(pass, n, f, add)
		}
	}
	m.report(pass, edges, selfNest)
	return nil
}

// lockModel is the program's one lock model, built once per Program and
// read by both lock analyzers: the discovered lock classes, each function's
// direct acquisitions and blocking base calls, and each function's held-set
// dataflow (lockorder's edges and blocking rule, lockheld's guarded-field
// rule).
type lockModel struct {
	cg        *callgraph.Graph
	classes   map[lockClass]bool
	directAcq map[*callgraph.Node][]lockClass // classes a function's own body acquires
	directRel map[*callgraph.Node][]lockClass // and releases
	blockBase map[*callgraph.Node]string      // node → description of the blocking base call
	flows     map[*callgraph.Node]*lockFlow

	// memoized transitive summaries
	transAcq   map[*callgraph.Node][]lockClass
	transBlock map[*callgraph.Node]string // "" = does not block; else witness description
}

// lockFlow is one function's lock events per CFG block and the may-held
// set entering each block (nil for an unreachable block).
type lockFlow struct {
	// recv is the method's receiver when its type carries a mu guard field
	// (lockheld's scope); recvMu events and guarded-field accesses are
	// recorded only then.
	recv   types.Object
	events [][]loEvent
	in     []map[lockClass]bool
}

// recvMu is the held-set entry for the analyzed method's own receiver's mu,
// tracked beside the lock classes: lockheld keys on the receiver value,
// lockorder on the type, so o.mu.Lock() on a second value of the receiver's
// type holds the class but not recvMu. It has no package, so it is never a
// discovered class; lockorder skips it.
var recvMu = lockClass{field: "mu"}

// lock events extracted from one CFG node
const (
	loAcquire = iota
	loRelease
	loCall
	loAccess
)

type loEvent struct {
	pos   token.Pos
	kind  int
	class lockClass       // for acquire/release: a lock class, or recvMu
	edge  *callgraph.Edge // for call (resolved call edge)
	field string          // for access: the receiver's guarded field
	// deferred marks a recvMu event inside a defer statement: it runs at
	// return, so the dataflow skips it; the Locked rule still counts it.
	deferred bool
}

// buildLockModel discovers the lock classes, extracts every function's
// events (recording its direct acquisitions and blocking base calls on the
// way), and then runs each function's dataflow, which needs every callee's
// direct acquisitions for the lock-helper transfer.
func buildLockModel(p *Program) *lockModel {
	m := &lockModel{
		cg:         p.CallGraph(),
		classes:    make(map[lockClass]bool),
		directAcq:  make(map[*callgraph.Node][]lockClass),
		directRel:  make(map[*callgraph.Node][]lockClass),
		blockBase:  make(map[*callgraph.Node]string),
		flows:      make(map[*callgraph.Node]*lockFlow),
		transAcq:   make(map[*callgraph.Node][]lockClass),
		transBlock: make(map[*callgraph.Node]string),
	}
	for _, pkg := range p.Pkgs {
		seg := segmentsMatch(pkg.Path, lockOrderPkgs)
		if seg == "" {
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
				if f := strct.Field(i); isMutex(f.Type()) {
					m.classes[lockClass{seg, name, f.Name()}] = true
				}
			}
		}
	}
	for _, n := range m.cg.Funcs {
		if info := p.Info(n.SrcPath); n.Decl != nil && info != nil {
			f := &lockFlow{recv: guardedRecv(info, n.Decl)}
			f.events = m.blockEvents(info, n, p.CFG(n.Decl.Body), f.recv)
			m.flows[n] = f
		}
	}
	for _, n := range m.cg.Funcs {
		if f := m.flows[n]; f != nil {
			m.solve(f, p.CFG(n.Decl.Body))
		}
	}
	return m
}

// muCall classifies call as an acquisition (Lock/RLock/TryLock/TryRLock)
// or release (Unlock/RUnlock) of a discovered lock class x.field, the x in
// x.field.Lock(). The bool result reports whether it is such a call at all.
func (m *lockModel) muCall(info *types.Info, call *ast.CallExpr) (lockClass, int, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, 0, false
	}
	kind := loAcquire
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
	case "Unlock", "RUnlock":
		kind = loRelease
	default:
		return lockClass{}, 0, false
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, 0, false
	}
	selection, ok := info.Selections[field]
	if !ok || selection.Kind() != types.FieldVal {
		return lockClass{}, 0, false
	}
	pkgPath, typName := namedRecv(selection.Recv())
	c := lockClass{segmentsMatch(pkgPath, lockOrderPkgs), typName, selection.Obj().Name()}
	return c, kind, m.classes[c]
}

func appendClass(cs []lockClass, c lockClass) []lockClass {
	for _, x := range cs {
		if x == c {
			return cs
		}
	}
	return append(cs, c)
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
func (m *lockModel) mayAcquire(n *callgraph.Node) []lockClass {
	if cs, ok := m.transAcq[n]; ok {
		return cs
	}
	reach, _ := m.cg.Reachable(n)
	var out []lockClass
	for _, r := range reach {
		for _, c := range m.directAcq[r] {
			out = appendClass(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	m.transAcq[n] = out
	return out
}

// mayBlock returns a witness description when n is a blocking base
// ("wal.Sync") or may transitively reach a blocking base call ("wal.Sync
// (via shard.checkpoint → shard.flush)"), else "".
func (m *lockModel) mayBlock(n *callgraph.Node) string {
	if d, ok := m.transBlock[n]; ok {
		return d
	}
	if d := blockingBase(n.Func); d != "" {
		m.transBlock[n] = d
		return d
	}
	reach, parent := m.cg.Reachable(n)
	desc := ""
	for _, r := range reach {
		base, ok := m.blockBase[r]
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
	m.transBlock[n] = desc
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

// blockEvents extracts the ordered events of every CFG block. Lock-class
// acquisitions and releases and resolved calls are recorded outside
// function literals and defer statements, as are the function's direct
// acquisitions and its first blocking base call. For a guarded receiver it
// also records the receiver's own mu calls (recvMu) and guarded-field
// accesses, inside function literals too, at their lexical position.
func (m *lockModel) blockEvents(info *types.Info, n *callgraph.Node, g *cfg.Graph, recv types.Object) [][]loEvent {
	// Resolve call expressions to their graph edges once, by site.
	edgeAt := make(map[token.Pos][]*callgraph.Edge)
	for _, e := range n.Out {
		edgeAt[e.Site] = append(edgeAt[e.Site], e)
	}
	lits, defers := spansOf[*ast.FuncLit](n.Decl.Body), spansOf[*ast.DeferStmt](n.Decl.Body)
	basePos := token.NoPos
	events := make([][]loEvent, len(g.Blocks))
	for _, b := range g.Blocks {
		var evs []loEvent
		for _, node := range b.Nodes {
			ast.Inspect(node, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.CallExpr:
					pos := x.Pos()
					deferred := defers.has(pos)
					live := !deferred && !lits.has(pos)
					if c, kind, ok := m.muCall(info, x); ok && live {
						if kind == loAcquire {
							m.directAcq[n] = appendClass(m.directAcq[n], c)
						} else {
							m.directRel[n] = appendClass(m.directRel[n], c)
						}
						evs = append(evs, loEvent{pos: pos, kind: kind, class: c})
					} else if !ok && live {
						if d := blockingBase(calleeFunc(info, x)); d != "" && (!basePos.IsValid() || pos < basePos) {
							m.blockBase[n], basePos = d, pos
						}
						for _, e := range edgeAt[pos] {
							evs = append(evs, loEvent{pos: pos, kind: loCall, edge: e})
						}
					}
					if kind, ok := recvLockCall(info, x, recv); ok {
						evs = append(evs, loEvent{pos: pos, kind: kind, class: recvMu, deferred: deferred})
					}
				case *ast.SelectorExpr:
					if name, ok := guardedFieldAccess(info, x, recv); ok {
						evs = append(evs, loEvent{pos: x.Pos(), kind: loAccess, field: name})
					}
				}
				return true
			})
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
		events[b.Index] = evs
	}
	return events
}

// solve runs the may-held dataflow to fixpoint: the state is the set of
// classes possibly held entering each block, unioned over predecessors,
// loop back-edges included, so an acquisition inside a loop sees itself
// held on the second iteration.
func (m *lockModel) solve(f *lockFlow, g *cfg.Graph) {
	f.in = make([]map[lockClass]bool, len(g.Blocks))
	f.in[0] = map[lockClass]bool{}
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			out := f.in[b.Index]
			if out == nil {
				continue
			}
			for _, ev := range f.events[b.Index] {
				out = m.step(out, ev)
			}
			for _, s := range b.Succs {
				if merged, grew := mergeSet(f.in[s.Index], out); grew {
					f.in[s.Index] = merged
					changed = true
				}
			}
		}
	}
}

// lockHelper reports whether callee is a lock helper, and which classes it
// acquires or releases: server's freshRLock() returns holding Service.mu,
// and a matching unlock helper would release it. The name says which way
// ("...Lock"/"...Unlock", case-sensitive), and only the classes the
// helper's own body directly acquires, or releases, count.
func (m *lockModel) lockHelper(callee *callgraph.Node) (classes []lockClass, acquire, ok bool) {
	switch name := callee.Func.Name(); {
	case strings.HasSuffix(name, "Lock"):
		classes, acquire = m.directAcq[callee], true
	case strings.HasSuffix(name, "Unlock"):
		classes = m.directRel[callee]
	}
	return classes, acquire, len(classes) > 0
}

// step applies one event to a held-set (copy-on-write); a lock-helper call
// transfers its direct acquisitions or releases into the caller's held-set.
func (m *lockModel) step(held map[lockClass]bool, ev loEvent) map[lockClass]bool {
	classes, acquire := []lockClass{ev.class}, ev.kind == loAcquire
	switch {
	case ev.deferred || ev.kind == loAccess:
		return held
	case ev.kind == loCall:
		var ok bool
		if classes, acquire, ok = m.lockHelper(ev.edge.Callee); !ok {
			return held
		}
	}
	held = cloneSet(held)
	for _, c := range classes {
		if acquire {
			held[c] = true
		} else {
			delete(held, c)
		}
	}
	return held
}

// replay walks the events of every reachable block in order, handing visit
// the held-set in force just before each event.
func (m *lockModel) replay(f *lockFlow, visit func(held map[lockClass]bool, ev loEvent)) {
	for i, evs := range f.events {
		held := f.in[i]
		if held == nil {
			continue // unreachable block
		}
		for _, ev := range evs {
			visit(held, ev)
			held = m.step(held, ev)
		}
	}
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

// checkFunc replays one function's held-set dataflow: an acquisition adds
// an edge from every held class (a same-class one is a nesting witness),
// and a resolved call made under held classes goes to callUnderLocks.
func (m *lockModel) checkFunc(pass *ProgramPass, n *callgraph.Node, f *lockFlow, add func(*lockEdge)) {
	m.replay(f, func(held map[lockClass]bool, ev loEvent) {
		switch {
		case ev.class == recvMu: // lockheld's view of the receiver
		case ev.kind == loAcquire:
			for c := range held {
				if c != recvMu {
					add(&lockEdge{from: c, to: ev.class, site: ev.pos, fn: shortFuncName(n)})
				}
			}
		case ev.kind == loCall && len(held) > 0:
			m.callUnderLocks(pass, n, ev, held, add)
		}
	})
}

// callUnderLocks handles a resolved call made while locks are held: it
// contributes held→acquired edges from the callee's transitive summary and
// reports blocking calls under a short-critical-section lock.
func (m *lockModel) callUnderLocks(pass *ProgramPass, n *callgraph.Node, ev loEvent, held map[lockClass]bool, add func(*lockEdge)) {
	callee := ev.edge.Callee
	// Lock-helper calls are the caller's own acquisition/release, not a
	// nested critical section; the dataflow transfer handles them.
	if _, _, ok := m.lockHelper(callee); ok {
		return
	}
	for _, acquired := range m.mayAcquire(callee) {
		for h := range held {
			if h != recvMu {
				add(&lockEdge{from: h, to: acquired, site: ev.pos, fn: shortFuncName(n), via: shortFuncName(callee)})
			}
		}
	}
	var short []string
	for h := range held {
		if shortHeldLocks[h.String()] {
			short = append(short, h.String())
		}
	}
	if len(short) == 0 {
		return
	}
	if desc := m.mayBlock(callee); desc != "" {
		sort.Strings(short)
		pass.Reportf(ev.pos,
			"method %s calls %s while holding %s: WAL fsyncs and engine evaluations must run outside short-critical-section state mutexes — restructure, or annotate //lint:ignore lockorder with a rationale",
			shortFuncName(n), desc, strings.Join(short, ", "))
	}
}

// report deduplicates edges, detects cycles among distinct classes, and
// emits the self-nesting diagnostics.
func (m *lockModel) report(pass *ProgramPass, edges, selfNest []*lockEdge) {
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
