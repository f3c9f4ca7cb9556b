// Package storefix exercises lockheld inside an internal/store package
// path: the guarded-field discipline applies as in internal/server, and
// fields that synchronize themselves (mutexes, sync/atomic values,
// references to self-locking structs) are exempt.
package storefix

import (
	"sync"
	"sync/atomic"

	"repro/internal/wal"
)

type shard struct {
	gate sync.RWMutex
	mu   sync.Mutex
	data []float64
	wal  *wal.WAL
	subs atomic.Int64
	peer *shard
}

// Good is the canonical submit shape: reserve under mu, release it across
// the fsync, reacquire to apply. The gate (a second mutex) and the wal (a
// self-locking struct) are accessed freely — neither is guarded by mu.
func (sh *shard) Good(v float64) error {
	sh.gate.RLock()
	defer sh.gate.RUnlock()
	sh.mu.Lock()
	w := sh.wal
	sh.mu.Unlock()
	if err := w.Append(wal.Record{Value: v}); err != nil {
		return err
	}
	sh.mu.Lock()
	sh.data = append(sh.data, v)
	sh.mu.Unlock()
	return nil
}

// GoodCount touches only a self-synchronized atomic: no mu needed.
func (sh *shard) GoodCount() int64 {
	return sh.subs.Add(1)
}

// GoodPeer reads a reference to another self-locking shard: the pointer's
// referent synchronizes itself, so the field is not guarded.
func (sh *shard) GoodPeer() *shard {
	return sh.peer
}

func (sh *shard) BadRead() float64 { // want "accesses guarded field sh.data"
	return sh.data[0]
}

// BadRelockGap follows the reserve/release/apply shape but touches guarded
// state in the gap where mu is released: a first-lock-versus-first-access
// comparison is blind to this, the held-state dataflow is not.
func (sh *shard) BadRelockGap(v float64) error { // want "accesses guarded field sh.data"
	sh.mu.Lock()
	w := sh.wal
	sh.mu.Unlock()
	sh.data = append(sh.data, v)
	if err := w.Sync(); err != nil {
		return err
	}
	sh.mu.Lock()
	sh.data = append(sh.data, v)
	sh.mu.Unlock()
	return nil
}

// BadDeferGap releases mu mid-body (the deferred unlock runs at return, it
// does not cover the gap) and touches guarded state before reacquiring.
func (sh *shard) BadDeferGap(v float64) float64 { // want "accesses guarded field sh.data"
	sh.mu.Lock()
	defer sh.mu.Unlock()
	snapshot := sh.data[0]
	sh.mu.Unlock()
	sh.data = append(sh.data, v)
	sh.mu.Lock()
	return snapshot
}
