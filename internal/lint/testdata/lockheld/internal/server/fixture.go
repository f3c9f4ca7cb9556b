// Package serverfix exercises lockheld inside an internal/server package
// path: structs with a `mu` mutex field get their locking discipline
// checked.
package serverfix

import "sync"

type store struct {
	mu    sync.RWMutex
	table map[string]int
	n     int
}

func (s *store) Good(k string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.table[k] // allowed: read under RLock
}

func (s *store) GoodWrite(k string, v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.table[k] = v // allowed: write under Lock
}

func (s *store) Bad(k string) int { // want "accesses guarded field s.table"
	return s.table[k]
}

func (s *store) LateLock() int { // want "accesses guarded field s.n"
	n := s.n // read before the Lock below
	s.mu.Lock()
	defer s.mu.Unlock()
	return n + s.n
}

func (s *store) sizeLocked() int {
	return s.n // allowed: Locked suffix declares the caller holds mu
}

func (s *store) badLocked() {
	s.mu.Lock() // want "self-deadlocks"
	s.n++
}

// freshRLock returns holding the read lock (the helper-acquire pattern).
func (s *store) freshRLock() { s.mu.RLock() }

func (s *store) ViaHelper() int {
	s.freshRLock() // allowed: *Lock-suffixed helper counts as acquiring mu
	defer s.mu.RUnlock()
	return s.n
}

// indirectRLock acquires through freshRLock without touching mu itself:
// any receiver call whose name ends in Lock counts as acquiring mu.
func (s *store) indirectRLock() { s.freshRLock() }

func (s *store) ViaIndirectHelper() int {
	s.indirectRLock() // allowed: the helper chain returns holding mu
	defer s.mu.RUnlock()
	return s.n
}

// OtherValue locks a second store, not the receiver: the rule keys on the
// receiver value, so s.n is still read without s.mu.
func (s *store) OtherValue(o *store) int { // want "accesses guarded field s.n"
	o.mu.Lock()
	defer o.mu.Unlock()
	return s.n
}

// InClosure reads guarded state only inside a function literal: closure
// bodies are checked at their lexical position.
func (s *store) InClosure() func() int { // want "accesses guarded field s.table"
	return func() int { return len(s.table) }
}

// ClosureLocks locks and unlocks inside the literal around its access:
// lock calls in a closure count at their lexical position too.
func (s *store) ClosureLocks() {
	bump := func() {
		s.mu.Lock()
		s.n++
		s.mu.Unlock()
	}
	bump()
}

// reacquireLocked drops the caller's lock and takes it back at return; the
// deferred acquisition still breaks the Locked contract.
func (s *store) reacquireLocked() {
	s.mu.Unlock()
	defer s.mu.Lock() // want "self-deadlocks"
}

//lint:ignore lockheld boot-time initialization before the store escapes its constructor, demonstrated for the fixture
func (s *store) boot() {
	s.n = 1
}

type plain struct{ n int }

func (p *plain) Get() int {
	return p.n // allowed: no mu field, struct is not in the locking model
}

// RangeKey writes a guarded field as the range key, with mu not held.
func (s *store) RangeKey(xs []int) { // want "accesses guarded field s.n"
	for s.n = range xs {
	}
}
