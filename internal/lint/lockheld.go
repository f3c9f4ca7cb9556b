package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/cfg"
)

// lockedPkgs are the packages whose types follow the documented locking
// model: a `mu sync.Mutex`/`sync.RWMutex` field guards every other field of
// the struct, and methods either acquire mu before touching state or carry
// the `Locked` naming suffix declaring that the caller already holds it.
// Fields that synchronize themselves — mutexes, sync/atomic values, and
// references to structs carrying their own mu — are exempt from the guard.
var lockedPkgs = []string{"internal/server", "internal/store"}

// LockHeld flags methods in internal/server and internal/store that touch
// mutex-guarded struct fields without first acquiring the mutex — the bug
// class behind torn reads of the aggregate cache and lost dirty-range
// updates.
//
// The check is a CFG dataflow over each method: a method on a struct with
// a `mu` mutex field must call s.mu.Lock() or s.mu.RLock() before its
// first access to any other field of s, or be named with the `Locked`
// suffix (caller-holds contract).
// `Locked`-suffixed methods are conversely flagged if they acquire mu
// themselves, which would self-deadlock under the contract. (That no WAL
// fsync or engine evaluation runs under a shard's mu is lockorder's rule.)
// Intentional exceptions (pre-publication initialization paths) are
// annotated `//lint:ignore lockheld <rationale>` on the method declaration.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc: "flags internal/server and internal/store methods that access mutex-guarded fields " +
		"before acquiring the documented mu, and Locked-suffixed methods that lock it themselves",
	Run: runLockHeld,
}

func runLockHeld(pass *Pass) error {
	if !pathHasAnySegments(pass.Pkg.Path, lockedPkgs) {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil || len(fn.Recv.List) == 0 {
				continue
			}
			checkLockDiscipline(pass, fn)
		}
	}
	return nil
}

// Held-state lattice for the lock-discipline dataflow: the receiver's mu is
// definitely not held, definitely held, or held on some paths only.
const (
	muUnheld = iota
	muHeld
	muMixed
)

// checkLockDiscipline runs a CFG dataflow over the method: the receiver's
// mu state propagates through lock/unlock events block by block, and a
// guarded-field access is flagged only where mu is definitely not held on
// every path — which catches the unlock-then-relock gap (release mu across
// an fsync, touch state, reacquire) that a first-lock-versus-first-access
// comparison is blind to, while branch-dependent locking (mixed state)
// stays silent. Deferred unlocks run at return and do not release the
// lexical hold; accesses are evaluated at their lexical position.
func checkLockDiscipline(pass *Pass, fn *ast.FuncDecl) {
	recvField := fn.Recv.List[0]
	if len(recvField.Names) == 0 || recvField.Names[0].Name == "_" {
		return
	}
	recvObj, ok := pass.Pkg.Info.Defs[recvField.Names[0]]
	if !ok {
		return
	}
	if !hasGuardField(recvObj.Type()) {
		return
	}
	info := pass.Pkg.Info
	recv := recvField.Names[0].Name

	if strings.HasSuffix(fn.Name.Name, "Locked") {
		firstLock := token.NoPos
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if isMuLockCall(info, call, recvObj) && (!firstLock.IsValid() || call.Pos() < firstLock) {
					firstLock = call.Pos()
				}
			}
			return true
		})
		if firstLock.IsValid() {
			pass.Reportf(firstLock,
				"method %s acquires %s.mu but its Locked suffix promises the caller already holds it: this self-deadlocks (sync.Mutex is not reentrant)",
				fn.Name.Name, recv)
		}
		return
	}

	// Deferred lock/unlock calls run at return, not at their lexical
	// position: exclude them from the event stream.
	var deferSpans [][2]token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferSpans = append(deferSpans, [2]token.Pos{d.Pos(), d.End()})
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

	type muEvent struct {
		pos   token.Pos
		kind  int // evLock, evUnlock, or evAccess
		field string
	}
	g := cfg.New(fn.Body)
	events := make([][]muEvent, len(g.Blocks))
	for _, b := range g.Blocks {
		var evs []muEvent
		for _, node := range b.Nodes {
			ast.Inspect(node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if inDefer(n.Pos()) {
						return true
					}
					if isMuLockCall(info, n, recvObj) {
						evs = append(evs, muEvent{pos: n.Pos(), kind: evLock})
					} else if isMuUnlockCall(info, n, recvObj) {
						evs = append(evs, muEvent{pos: n.Pos(), kind: evUnlock})
					}
				case *ast.SelectorExpr:
					if name, ok := guardedFieldAccess(info, n, recvObj); ok {
						evs = append(evs, muEvent{pos: n.Pos(), kind: evAccess, field: name})
					}
				}
				return true
			})
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
		events[b.Index] = evs
	}

	badPos := token.NoPos
	var badField string
	apply := func(state int, evs []muEvent, record bool) int {
		for _, ev := range evs {
			switch ev.kind {
			case evLock:
				state = muHeld
			case evUnlock:
				state = muUnheld
			case evAccess:
				if state == muUnheld && record && (!badPos.IsValid() || ev.pos < badPos) {
					badPos, badField = ev.pos, ev.field
				}
			}
		}
		return state
	}

	// Fixpoint over may/must-held: meet is equality-or-mixed.
	in := make([]int, len(g.Blocks))
	for i := range in {
		in[i] = -1 // unvisited
	}
	in[0] = muUnheld
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			if in[b.Index] < 0 {
				continue
			}
			out := apply(in[b.Index], events[b.Index], false)
			for _, s := range b.Succs {
				merged := out
				if cur := in[s.Index]; cur >= 0 && cur != out {
					merged = muMixed
				}
				if merged != in[s.Index] {
					in[s.Index] = merged
					changed = true
				}
			}
		}
	}
	for _, b := range g.Blocks {
		if in[b.Index] < 0 {
			continue // unreachable
		}
		apply(in[b.Index], events[b.Index], true)
	}

	if badPos.IsValid() {
		pos := pass.Pkg.Fset.Position(badPos)
		pass.Reportf(fn.Name.Pos(),
			"method %s accesses guarded field %s.%s (line %d) without holding %s.mu: acquire the mutex first, add the Locked suffix (caller-holds contract), or annotate //lint:ignore lockheld with a rationale",
			fn.Name.Name, recv, badField, pos.Line, recv)
	}
}

// isMuUnlockCall reports whether call releases the receiver's mutex:
// recv.mu.Unlock() or recv.mu.RUnlock().
func isMuUnlockCall(info *types.Info, call *ast.CallExpr, recvObj types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock") {
		return false
	}
	x, ok := sel.X.(*ast.SelectorExpr)
	if !ok || x.Sel.Name != "mu" {
		return false
	}
	id, ok := x.X.(*ast.Ident)
	return ok && info.Uses[id] == recvObj
}

// hasGuardField reports whether the (possibly pointer) receiver type is a
// struct with a field `mu` of type sync.Mutex or sync.RWMutex.
func hasGuardField(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != "mu" {
			continue
		}
		if pkg, name := namedRecv(f.Type()); pkg == "sync" && (name == "Mutex" || name == "RWMutex") {
			return true
		}
	}
	return false
}

// isMuLockCall reports whether call acquires the receiver's mutex: either
// directly (recv.mu.Lock(), recv.mu.RLock()) or through a receiver helper
// method whose name ends in Lock/RLock and returns holding the mutex
// (internal/server's freshRLock pattern). Unlock/RUnlock do not match the
// suffix check — Go method names are case-sensitive.
func isMuLockCall(info *types.Info, call *ast.CallExpr, recvObj types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasSuffix(sel.Sel.Name, "Lock") {
		return false
	}
	switch x := sel.X.(type) {
	case *ast.SelectorExpr: // recv.mu.Lock() / recv.mu.RLock()
		if sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" {
			return false
		}
		if x.Sel.Name != "mu" {
			return false
		}
		id, ok := x.X.(*ast.Ident)
		return ok && info.Uses[id] == recvObj
	case *ast.Ident: // recv.freshRLock() — a lock-acquiring helper method
		return info.Uses[x] == recvObj
	}
	return false
}

// guardedFieldAccess resolves sel as recv.<field> for a struct field that
// the receiver's mu guards, and returns the field name. Fields whose types
// synchronize themselves are not guarded and never match.
func guardedFieldAccess(info *types.Info, sel *ast.SelectorExpr, recvObj types.Object) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok || info.Uses[id] != recvObj {
		return "", false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return "", false
	}
	name := selection.Obj().Name()
	if name == "mu" {
		return "", false
	}
	if selfSynchronized(selection.Obj().Type()) {
		return "", false
	}
	return name, true
}

// selfSynchronized reports whether a field of this type manages its own
// synchronization, so touching it without the struct's mu is not a torn
// access: sync mutexes (a striping gate next to mu), sync/atomic values,
// and pointers/slices/arrays of structs that carry their own mu guard (a
// coordinator holding a reference to a self-locking storage layer).
func selfSynchronized(t types.Type) bool {
	if pkg, name := namedRecv(t); pkg == "sync" && (name == "Mutex" || name == "RWMutex") {
		return true
	} else if pkg == "sync/atomic" {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return selfSynchronized(u.Elem())
	case *types.Array:
		return selfSynchronized(u.Elem())
	}
	return hasGuardField(t)
}

// Event kinds for the lock-discipline dataflow.
const (
	evLock = iota
	evUnlock
	evAccess
)
