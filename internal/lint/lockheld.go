package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
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
// The check is a rule over the program's shared held-set dataflow (the one
// lockorder reads): a method on a struct with a `mu` mutex field may touch
// any other field of its receiver only where the receiver's own mu is in
// the may-held set, i.e. after s.mu.Lock() or s.mu.RLock() on some path, or
// be named with the `Locked` suffix (caller-holds contract).
// `Locked`-suffixed methods are conversely flagged if they acquire mu
// themselves, which would self-deadlock under the contract. (That no WAL
// fsync or engine evaluation runs under a shard's mu is lockorder's rule.)
// Intentional exceptions (pre-publication initialization paths) are
// annotated `//lint:ignore lockheld <rationale>` on the method declaration.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc: "flags internal/server and internal/store methods that access mutex-guarded fields " +
		"before acquiring the documented mu, and Locked-suffixed methods that lock it themselves",
	RunProgram: runLockHeld,
}

// runLockHeld reads each method's receiver-mu events off the shared lock
// model. Because the held-set is a may-set, an access is flagged only where
// the receiver's mu is held on no path: the unlock-then-relock gap (release
// mu across an fsync, touch state, reacquire) is caught, while
// branch-dependent locking stays silent. Deferred unlocks run at return and
// do not release the lexical hold; accesses and lock calls inside function
// literals count at their lexical position.
func runLockHeld(pass *ProgramPass) error {
	m := pass.Prog.lockModel()
	for _, n := range pass.Prog.CallGraph().Funcs {
		f := m.flows[n]
		if f == nil || f.recv == nil || segmentsMatch(n.SrcPath, lockedPkgs) == "" {
			continue
		}
		name, recv := n.Decl.Name, f.recv.Name()
		if strings.HasSuffix(name.Name, "Locked") {
			first := token.NoPos
			for _, evs := range f.events {
				for _, ev := range evs {
					if ev.kind == loAcquire && ev.class == recvMu && (!first.IsValid() || ev.pos < first) {
						first = ev.pos
					}
				}
			}
			if first.IsValid() {
				pass.Reportf(first,
					"method %s acquires %s.mu but its Locked suffix promises the caller already holds it: this self-deadlocks (sync.Mutex is not reentrant)",
					name.Name, recv)
			}
			continue
		}
		var bad loEvent
		m.replay(f, func(held map[lockClass]bool, ev loEvent) {
			if ev.kind == loAccess && !held[recvMu] && (!bad.pos.IsValid() || ev.pos < bad.pos) {
				bad = ev
			}
		})
		if bad.pos.IsValid() {
			pass.Reportf(name.Pos(),
				"method %s accesses guarded field %s.%s (line %d) without holding %s.mu: acquire the mutex first, add the Locked suffix (caller-holds contract), or annotate //lint:ignore lockheld with a rationale",
				name.Name, recv, bad.field, pass.Prog.Fset.Position(bad.pos).Line, recv)
		}
	}
	return nil
}

// guardedRecv returns fn's named receiver when its type carries a mu guard
// field (the methods lockheld checks), else nil.
func guardedRecv(info *types.Info, fn *ast.FuncDecl) types.Object {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return nil
	}
	names := fn.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return nil
	}
	if obj := info.Defs[names[0]]; obj != nil && hasGuardField(obj.Type()) {
		return obj
	}
	return nil
}

// recvLockCall classifies call as an acquisition (loAcquire) or release
// (loRelease) of the receiver's own mu: recv.mu.Lock/RLock/Unlock/RUnlock(),
// or a receiver helper method whose name ends in Lock/RLock and returns
// holding the mutex (internal/server's freshRLock pattern), however deep
// its own acquisition sits. Unlock/RUnlock do not match the suffix check —
// Go method names are case-sensitive.
func recvLockCall(info *types.Info, call *ast.CallExpr, recv types.Object) (int, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || recv == nil {
		return 0, false
	}
	switch x := sel.X.(type) {
	case *ast.SelectorExpr: // recv.mu.Lock() / recv.mu.RUnlock()
		if id, ok := x.X.(*ast.Ident); !ok || x.Sel.Name != "mu" || info.Uses[id] != recv {
			return 0, false
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			return loAcquire, true
		case "Unlock", "RUnlock":
			return loRelease, true
		}
	case *ast.Ident: // recv.freshRLock() — a lock-acquiring helper method
		return loAcquire, info.Uses[x] == recv && strings.HasSuffix(sel.Sel.Name, "Lock")
	}
	return 0, false
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
		if f := st.Field(i); f.Name() == "mu" && isMutex(f.Type()) {
			return true
		}
	}
	return false
}

// isMutex reports whether t is (a pointer to) sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	pkg, name := namedRecv(t)
	return pkg == "sync" && (name == "Mutex" || name == "RWMutex")
}

// guardedFieldAccess resolves sel as recv.<field> for a struct field that
// the receiver's mu guards, and returns the field name. Fields whose types
// synchronize themselves are not guarded and never match.
func guardedFieldAccess(info *types.Info, sel *ast.SelectorExpr, recv types.Object) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	selection, isField := info.Selections[sel]
	if !ok || recv == nil || info.Uses[id] != recv || !isField || selection.Kind() != types.FieldVal {
		return "", false
	}
	name := selection.Obj().Name()
	return name, name != "mu" && !selfSynchronized(selection.Obj().Type())
}

// selfSynchronized reports whether a field of this type manages its own
// synchronization, so touching it without the struct's mu is not a torn
// access: sync mutexes (a striping gate next to mu), sync/atomic values,
// and pointers/slices/arrays of structs that carry their own mu guard (a
// coordinator holding a reference to a self-locking storage layer).
func selfSynchronized(t types.Type) bool {
	if pkg, _ := namedRecv(t); pkg == "sync/atomic" || isMutex(t) {
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
