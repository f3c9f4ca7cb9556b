package store

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/trust"
	"repro/internal/wal"
)

// shard owns one product-keyed partition of the rating state: a dataset
// slice holding only this shard's products, one rater dictionary that
// interns every rater of them once, per product an ordinal column and a
// rater bitset, and (when durable) this shard's own WAL stream with an
// independent group-commit pipeline.
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
	// raters is the shard's rater dictionary (Open's is the snapshot's,
	// indexed on its first lookup; Load builds one). ords[pos][j] is the
	// ordinal of data.Products[pos].Ratings[j]'s rater, so Compact writes
	// the snapshot without hashing. seen[pos] is the bitset of the
	// ordinals that rated data.Products[pos], nil until the product's
	// first submit builds it (bitsLocked): New, Open and Load build none.
	raters        *trust.Symbols
	ords          [][]uint32
	seen          [][]uint64
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
// The mutex choreography is the layer's core discipline: the rater's bit
// is reserved in seen under mu, mu is released across the WAL fsync (so
// one slow disk stalls only this shard's duplicate checks, not its reads),
// and reacquired to apply. A WAL failure rolls the reservation back —
// nothing observable changed for the caller, matching the single-lock
// semantics.
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
	o, err := sh.checkLocked(pos, product, rater, day)
	if err != nil {
		sh.mu.Unlock()
		return wal.AckDurable, false, err
	}
	w := sh.wal
	// Reserve the rater's bit so a concurrent duplicate submission fails
	// during this one's fsync instead of double-logging.
	sh.seen[pos][o/64] |= 1 << (o % 64)
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
			sh.seen[pos][o/64] &^= 1 << (o % 64) // roll back: the rating was not accepted
			sh.mu.Unlock()
			return ack, false, fmt.Errorf("%w: %v", ErrUnavailable, err)
		}
	}

	sh.mu.Lock()
	p := &sh.data.Products[pos]
	p.Ratings, sh.ords[pos] = insertRating(p.Ratings, sh.ords[pos], dataset.Rating{Day: day, Value: value, Rater: rater}, o)
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
// rater) on the product at partition position pos, interning the rater,
// and returns its ordinal. Product existence is the router's job: a
// product reaches a shard only through the store's routing table.
func (sh *shard) checkLocked(pos int, product, rater string, day float64) (uint32, error) {
	if err := checkDay(day, sh.horizon); err != nil {
		return 0, err
	}
	var o uint32
	sh.raters, o = sh.raters.Intern(rater)
	if sh.bitsLocked(pos)[o/64]&(1<<(o%64)) != 0 {
		return 0, fmt.Errorf("%w: rater %q on %q", ErrDuplicateRating, rater, product)
	}
	return o, nil
}

// bitsLocked returns the rater bitset of the product at partition
// position pos, covering every ordinal of the dictionary: built on first
// use from the product's ordinal column, grown with the dictionary.
// Caller holds sh.mu.
func (sh *shard) bitsLocked(pos int) []uint64 {
	b := sh.seen[pos]
	if need := (sh.raters.Len() + 63) / 64; len(b) < need {
		b = append(b, make([]uint64, need-len(b))...)
		if sh.seen[pos] == nil {
			for _, o := range sh.ords[pos] {
				b[o/64] |= 1 << (o % 64)
			}
		}
		sh.seen[pos] = b
	}
	return b
}

// insertRating inserts r, whose rater has ordinal o, into the series s
// (Series.Insert) and o into the series' ordinal column at the same
// index: an in-order rating, as every rating of a snapshot block is, by
// appending both.
func insertRating(s dataset.Series, ords []uint32, r dataset.Rating, o uint32) (dataset.Series, []uint32) {
	if n := len(s); n == 0 || s[n-1].Day <= r.Day {
		return append(s, r), append(ords, o)
	}
	i := sort.Search(len(s), func(j int) bool { return s[j].Day > r.Day })
	return s.Insert(r), slices.Insert(ords, i, o)
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
	data, raters, ords := sh.data, sh.raters, sh.ords
	sh.sinceSnapshot = 0
	sh.mu.Unlock()
	if w == nil {
		return nil
	}
	// Under the exclusive gate no submission mutates data or the
	// dictionary, so Compact may marshal them outside mu (fsync never runs
	// under the state mutex).
	return w.Compact(data, raters, ords)
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
