// Package storefix exercises lockorder inside an internal/store package
// path: the documented Store.mu → shard.mu order is a plain edge, the
// reverse acquisition closes a cycle, nesting two instances of one class
// needs a documented instance order, and a WAL fsync or engine evaluation
// under the shard mutex is flagged, whether called directly or reached
// through a call chain.
package storefix

import (
	"context"
	"sync"

	"repro/internal/engine"
	"repro/internal/wal"
)

type Store struct {
	mu     sync.RWMutex
	shards []*shard
}

type shard struct {
	mu   sync.Mutex
	wal  *wal.WAL
	eng  *engine.Engine
	vals []float64
}

// Submit follows the documented Store.mu → shard.mu order. The nested
// acquisition is where the analyzer anchors the whole cycle report once
// badBack (below) adds the reverse edge: the earliest witness of the
// cycle's first edge is the deterministic report site.
func (s *Store) Submit(i int, v float64) {
	s.mu.RLock()
	sh := s.shards[i]
	sh.mu.Lock() // want "lock-order cycle — potential deadlock"
	sh.vals = append(sh.vals, v)
	sh.mu.Unlock()
	s.mu.RUnlock()
}

// badBack acquires the topology lock while holding a shard lock — the
// reverse of Submit's order. Together they form the Store.mu ⇄ shard.mu
// cycle reported at Submit's nested acquisition above.
func (sh *shard) badBack(s *Store) int {
	sh.mu.Lock()
	s.mu.RLock()
	n := len(s.shards)
	s.mu.RUnlock()
	sh.mu.Unlock()
	return n
}

// lockPair nests two instances of the same class with no documented order.
func (s *Store) lockPair(a, b *shard) {
	a.mu.Lock()
	b.mu.Lock() // want "a second instance is acquired while one is already held"
	b.mu.Unlock()
	a.mu.Unlock()
}

// BadFsync fsyncs directly under the shard state mutex: the callee is a
// blocking base, its own witness at depth 0.
func (sh *shard) BadFsync(v float64) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.vals = append(sh.vals, v)
	return sh.wal.Sync() // want "calls wal.Sync while holding internal/store.shard.mu"
}

// BadEval runs an engine evaluation directly under the shard state mutex.
func (sh *shard) BadEval(ctx context.Context) error {
	sh.mu.Lock()
	_, err := sh.eng.Resume(ctx, nil, nil) // want "calls engine.Resume while holding internal/store.shard.mu"
	sh.mu.Unlock()
	return err
}

// flush is the blocking leaf: its direct wal.Sync call taints every caller
// in the may-block summary.
func (sh *shard) flush() error {
	return sh.wal.Sync()
}

func (sh *shard) relay() error {
	return sh.flush()
}

// badCheckpoint fsyncs one call away while holding the shard state mutex.
func (sh *shard) badCheckpoint() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.flush() // want "calls wal.Sync while holding internal/store.shard.mu"
}

// badDeep reaches the fsync two calls away; the diagnostic names the chain.
func (sh *shard) badDeep() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.relay() // want "calls wal.Sync \(via shard.relay → shard.flush\) while holding internal/store.shard.mu"
}

// goodCheckpoint releases the state mutex across the fsync — the canonical
// reserve/release/apply shape. No finding.
func (sh *shard) goodCheckpoint(v float64) error {
	sh.mu.Lock()
	w := sh.wal
	sh.mu.Unlock()
	if err := w.Sync(); err != nil {
		return err
	}
	sh.mu.Lock()
	sh.vals = append(sh.vals, v)
	sh.mu.Unlock()
	return nil
}

// lockShard is a lock helper that acquires the shard mutex directly.
func (sh *shard) lockShard() { sh.mu.Lock() }

// relockShardLock only calls another helper: it acquires nothing directly,
// so its call does not enter the caller's held-set.
func (sh *shard) relockShardLock() { sh.lockShard() }

// viaIndirectLock fsyncs after the indirect helper; only helpers that lock
// directly transfer their acquisitions, so no finding is derived.
func (sh *shard) viaIndirectLock() error {
	sh.relockShardLock()
	defer sh.mu.Unlock()
	return sh.flush()
}

// release is a helper that only releases the shard mutex.
func (sh *shard) release() { sh.mu.Unlock() }

// lockThenRelease calls the releasing helper while holding the mutex: a
// release is not a second acquisition, so no nesting is derived.
func (sh *shard) lockThenRelease() {
	sh.mu.Lock()
	sh.release()
}

// closureNest takes the shard mutex again only inside a function literal:
// a closure runs under its eventual caller, so no nesting is derived here.
func (sh *shard) closureNest() func() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return func() {
		sh.mu.Lock()
		sh.mu.Unlock()
	}
}
