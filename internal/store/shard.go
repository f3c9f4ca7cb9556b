package store

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/wal"
)

// shard owns one product-keyed partition of the rating state: a dataset
// slice holding only this shard's products, the per-product rater sets, and
// (when durable) this shard's own WAL stream with an independent
// group-commit pipeline.
//
// Locking: gate orders submissions against checkpoints — a submission holds
// gate.RLock across its whole append+apply critical path, and a checkpoint
// takes gate.Lock to quiesce the shard so Compact can never truncate a log
// record that has not yet been applied to the state it snapshots. mu guards
// the in-memory state and is never held across a WAL fsync or an engine
// evaluation (enforced by the lockorder analyzer); the order is always
// gate before mu.
type shard struct {
	gate sync.RWMutex
	mu   sync.Mutex
	// data holds only this shard's products, in registration order.
	data *dataset.Dataset
	// seen[pos] is the set of raters who rated data.Products[pos], indexed
	// by partition position like data.Products, so once the router has
	// resolved a product's position no check hashes its ID again. It is
	// nil until the product's first submit builds it from the series
	// (ratersLocked): New, Open and Load build none.
	seen          []map[string]bool
	sinceSnapshot int

	wal           *wal.WAL
	snapshotEvery int
	horizon       float64
	// keepLog is set when the shard's recovery skipped a record: a
	// snapshot of the state would drop it, so Close does not compact.
	keepLog bool

	// submits counts ratings accepted on this shard (nil until the store's
	// EnableMetrics runs; a nil counter discards increments).
	submits *obs.Counter
}

// submit validates, durably logs, and applies one rating whose product
// lives at partition index pos. The returned bool reports that the shard's
// snapshot interval elapsed — the caller runs the checkpoint outside the
// submission's gate.RLock (a checkpoint needs the exclusive gate).
//
// The mutex choreography is the layer's core discipline: the rater slot is
// reserved in seen under mu, mu is released across the WAL fsync (so one
// slow disk stalls only this shard's duplicate checks, not its reads), and
// reacquired to apply. A WAL failure rolls the reservation back — nothing
// observable changed for the caller, matching the single-lock semantics.
func (sh *shard) submit(ctx context.Context, pos int, product, rater string, value, day float64) (wal.Ack, bool, error) {
	sh.gate.RLock()
	defer sh.gate.RUnlock()
	sh.mu.Lock()
	// A request whose deadline expired while queued on the lock is shed
	// before it costs an fsync; nothing has been written for it yet.
	if err := ctx.Err(); err != nil {
		sh.mu.Unlock()
		return wal.AckDurable, false, err
	}
	if err := sh.checkLocked(pos, product, rater, day); err != nil {
		sh.mu.Unlock()
		return wal.AckDurable, false, err
	}
	w := sh.wal
	// Reserve the rater slot so a concurrent duplicate submission fails
	// during this one's fsync instead of double-logging.
	sh.ratersLocked(pos)[rater] = true
	sh.mu.Unlock()

	ack := wal.AckDurable
	if w != nil {
		var err error
		ack, err = w.AppendAck(wal.Record{
			Product: product, Rater: rater, Value: value, Day: day,
			ReceivedUnixNano: time.Now().UnixNano(),
		})
		if err != nil {
			sh.mu.Lock()
			delete(sh.seen[pos], rater) // roll back: the rating was not accepted
			sh.mu.Unlock()
			return ack, false, fmt.Errorf("%w: %v", ErrUnavailable, err)
		}
	}

	sh.mu.Lock()
	p := &sh.data.Products[pos]
	p.Ratings = p.Ratings.Insert(dataset.Rating{Day: day, Value: value, Rater: rater})
	p.Version++
	sh.submits.Inc()
	sh.sinceSnapshot++
	snap := w != nil && sh.snapshotEvery > 0 && sh.sinceSnapshot >= sh.snapshotEvery
	if snap {
		sh.sinceSnapshot = 0
	}
	sh.mu.Unlock()
	return ack, snap, nil
}

// checkLocked runs the stateful submit validations (day range, duplicate
// rater) on the product at partition position pos without mutating
// anything. Product existence is the router's job: a product reaches a
// shard only through the store's routing table.
func (sh *shard) checkLocked(pos int, product, rater string, day float64) error {
	if err := checkDay(day, sh.horizon); err != nil {
		return err
	}
	if sh.ratersLocked(pos)[rater] {
		return fmt.Errorf("%w: rater %q on %q", ErrDuplicateRating, rater, product)
	}
	return nil
}

// ratersLocked returns the rater set of the product at partition
// position pos, building it on first use from the product's series, with
// room to grow. Caller holds sh.mu.
func (sh *shard) ratersLocked(pos int) map[string]bool {
	if sh.seen[pos] == nil {
		s := sh.data.Products[pos].Ratings
		m := make(map[string]bool, len(s)+len(s)/4+8)
		for _, r := range s {
			m[r.Rater] = true
		}
		sh.seen[pos] = m
	}
	return sh.seen[pos]
}

// checkDay checks that a finite day lies within the horizon.
func checkDay(day, horizon float64) error {
	if day < 0 || day >= horizon {
		return fmt.Errorf("%w: day %v outside [0,%v)", ErrBadRating, day, horizon)
	}
	return nil
}

// checkpoint quiesces the shard (exclusive gate: no submission is between
// its WAL append and its state apply) and compacts its WAL: snapshot the
// partition, reset the log. No-op without a WAL.
func (sh *shard) checkpoint() error {
	sh.gate.Lock()
	defer sh.gate.Unlock()
	sh.mu.Lock()
	w := sh.wal
	data := sh.data
	sh.sinceSnapshot = 0
	sh.mu.Unlock()
	if w == nil {
		return nil
	}
	// Under the exclusive gate no submission mutates data, so Compact may
	// marshal it outside mu (fsync never runs under the state mutex).
	return w.Compact(data)
}

// cutLocked copies the shard's product headers into the combined dataset
// slice (globals[j] is the global index of the shard's j-th product).
// Caller holds sh.mu. Series backing arrays are never mutated below a
// view's length (Series.Insert only appends past it or reallocates), and
// views are capacity-capped: each copied header is Ratings[:n:n], so a
// reader's Insert or append on it reallocates instead of writing into the
// shard's spare capacity. The copied headers therefore stay immutable
// after the lock is released.
func (sh *shard) cutLocked(dst []dataset.Product, globals []int) {
	for j, g := range globals {
		p := sh.data.Products[j]
		p.Ratings = p.Ratings[:len(p.Ratings):len(p.Ratings)]
		dst[g] = p
	}
}
