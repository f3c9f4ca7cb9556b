// Package store is the sharded storage layer under the rating service:
// rating state is partitioned into N product-keyed shards, each with its
// own mutex, dataset partition, rater dictionary, and WAL stream, so
// submissions on different products contend only on their own shard's lock
// and fsync pipeline. The coordinator above (internal/server) routes writes
// through Submit, tells whether anything changed from Generation, and takes
// consistent multi-shard read snapshots through View; with one shard the
// locking degenerates to the original single-stream service's.
//
// Routing is a pure function — FNV-1a(product) mod shards — recorded in
// the WAL directory's manifest so a reopen with a different shard count
// fails loudly instead of scattering products across the wrong logs.
package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/trust"
	"repro/internal/wal"
)

// Errors returned by the storage layer. internal/server aliases these, so
// errors.Is against either package's sentinels works on both sides.
var (
	// ErrUnknownProduct indicates a rating or query for an unregistered
	// product.
	ErrUnknownProduct = errors.New("store: unknown product")
	// ErrBadRating indicates an out-of-range or non-finite value or day.
	ErrBadRating = errors.New("store: bad rating")
	// ErrDuplicateRating indicates a rater rating the same product twice
	// (the one-rating-per-rater-per-object rule of Eq. 7).
	ErrDuplicateRating = errors.New("store: duplicate rating")
	// ErrUnavailable indicates the durable log rejected the write; the
	// rating was NOT accepted and the client should retry after the
	// operator restores storage (HTTP 503).
	ErrUnavailable = errors.New("store: storage unavailable")
)

// FNV-1a 64-bit parameters (inlined so routing allocates nothing).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Route maps a product ID to its shard index under the given shard count:
// FNV-1a 64-bit over the ID's bytes, mod shards. It is a pure function of
// its arguments — the same product always lands on the same shard across
// restarts and processes — and is the hash named by wal.RouteHashName in
// the shard manifest.
//
//lint:hotpath
func Route(product string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint64(fnvOffset64)
	for i := 0; i < len(product); i++ {
		h ^= uint64(product[i])
		h *= fnvPrime64
	}
	return int(h % uint64(shards))
}

// loc addresses one product: its shard and its index within the shard's
// dataset partition.
type loc struct {
	shard int
	pos   int
}

// Store is the sharded rating state. The zero value is not usable;
// construct with New (in-memory) or Open (durable).
type Store struct {
	// mu guards the routing topology (products, byID, globals) — it changes
	// only under Load, which replaces the dataset wholesale. Per-rating
	// state lives in the shards, each behind its own locks; the order is
	// always Store.mu, then shard.gate, then shard.mu.
	mu      sync.RWMutex
	horizon float64
	// products holds the registered product IDs in registration order —
	// the order every combined view presents, regardless of sharding.
	products []string
	byID     map[string]loc
	// globals[s][j] is the global (registration-order) index of shard s's
	// j-th partition product.
	globals [][]int
	shards  []*shard
	logf    func(format string, args ...any)
	// replayNanos holds each shard's boot recovery duration (WAL open +
	// replay), captured by openShards; surfaced by EnableMetrics. Empty for
	// an in-memory store.
	replayNanos []int64
	// gen counts the changes applied to the rating state: it starts at 1
	// and is bumped after every applied submit and every Load.
	gen atomic.Uint64
	// base is the WAL base directory (nil in memory), set by Open.
	base wal.FS
}

// New creates an in-memory (non-durable) sharded store.
func New(horizonDays float64, products []string, shards int) (*Store, error) {
	if horizonDays <= 0 || math.IsInf(horizonDays, 0) || math.IsNaN(horizonDays) {
		return nil, fmt.Errorf("store: horizon %v", horizonDays)
	}
	if len(products) == 0 {
		return nil, errors.New("store: no products")
	}
	if shards < 1 {
		shards = 1
	}
	st := &Store{
		horizon: horizonDays,
		byID:    make(map[string]loc, len(products)),
		globals: make([][]int, shards),
		logf:    func(string, ...any) {},
	}
	st.gen.Store(1)
	for i := 0; i < shards; i++ {
		st.shards = append(st.shards, &shard{
			data:    &dataset.Dataset{HorizonDays: horizonDays},
			raters:  trust.NewSymbols(0),
			horizon: horizonDays,
		})
	}
	for g, id := range products {
		if _, dup := st.byID[id]; dup {
			return nil, fmt.Errorf("store: duplicate product %q", id)
		}
		s := Route(id, shards)
		sh := st.shards[s]
		st.byID[id] = loc{shard: s, pos: len(sh.data.Products)}
		sh.data.Products = append(sh.data.Products, dataset.Product{ID: id})
		sh.ords, sh.seen = append(sh.ords, nil), append(sh.seen, nil)
		st.globals[s] = append(st.globals[s], g)
		st.products = append(st.products, id)
	}
	return st, nil
}

// SetLogf directs the store's operational log (snapshot failures). f
// must be safe to call from any goroutine without acquiring locks that are
// ever held while calling into the store.
func (st *Store) SetLogf(f func(format string, args ...any)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if f == nil {
		f = func(string, ...any) {}
	}
	st.logf = f
}

// EnableMetrics registers the store's observability with reg and attaches
// per-shard WAL metrics: accepted-submission counts, fsync latency and
// group-commit batch histograms, fsync-breaker gauges, and (on a durable
// store) the boot replay duration each shard spent in recovery. A nil reg
// is a no-op; the recording paths stay lock-free, so there is no ordering
// hazard with in-flight submissions.
func (st *Store) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	for i, sh := range st.shards {
		lbl := obs.L("shard", strconv.Itoa(i))
		sh.mu.Lock()
		sh.submits = reg.Counter("store_submit_total", "Ratings accepted, by shard.", lbl)
		w := sh.wal
		sh.mu.Unlock()
		if w != nil {
			w.SetMetrics(wal.Metrics{
				FsyncSeconds: reg.Histogram("wal_fsync_seconds", "WAL fsync latency in seconds, by shard.", obs.LatencyBuckets, lbl),
				BatchSize:    reg.Histogram("wal_batch_size", "Records made durable per WAL group commit, by shard.", obs.CountBuckets, lbl),
				BreakerOpen:  reg.Gauge("wal_breaker_open", "1 while the shard's fsync-latency breaker is open.", lbl),
			})
		}
		if i < len(st.replayNanos) {
			reg.Gauge("store_replay_seconds", "Boot recovery (WAL open + replay) duration in seconds, by shard.", lbl).
				Set(float64(st.replayNanos[i]) / 1e9)
		}
	}
}

// Shards returns the shard count.
func (st *Store) Shards() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.shards)
}

// ShardOf returns the shard index serving the product, or -1 when the
// product is not registered.
func (st *Store) ShardOf(product string) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	l, ok := st.byID[product]
	if !ok {
		return -1
	}
	return l.shard
}

// Has reports whether the product is registered.
func (st *Store) Has(product string) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	_, ok := st.byID[product]
	return ok
}

// Products returns the registered product IDs in registration order.
func (st *Store) Products() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return append([]string(nil), st.products...)
}

// RatingCount returns the number of ratings recorded for the product.
func (st *Store) RatingCount(product string) (int, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	l, ok := st.byID[product]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownProduct, product)
	}
	sh := st.shards[l.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.data.Products[l.pos].Ratings), nil
}

// Horizon returns the rating horizon in days.
func (st *Store) Horizon() float64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.horizon
}

// Submit validates, durably logs (on a durable store), and applies one
// rating to its product's shard. Cross-shard submissions run fully in
// parallel; same-shard submissions contend only on that shard's lock and
// group commit. The ack qualifies the durability promise exactly as
// wal.AppendAck does.
func (st *Store) Submit(ctx context.Context, product, rater string, value, day float64) (wal.Ack, error) {
	if err := checkRating(rater, value, day); err != nil {
		return wal.AckDurable, err
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	l, ok := st.byID[product]
	if !ok {
		return wal.AckDurable, fmt.Errorf("%w: %q", ErrUnknownProduct, product)
	}
	sh := st.shards[l.shard]
	ack, snap, err := sh.submit(ctx, l.pos, product, rater, value, day)
	if err != nil {
		return ack, err
	}
	st.gen.Add(1)
	if snap {
		// The snapshot interval elapsed: checkpoint outside the submission's
		// gate (checkpoint needs it exclusively). A failure is logged, not
		// returned — the triggering rating is already durable in the log,
		// the snapshot only bounds recovery time.
		if cerr := sh.checkpoint(); cerr != nil {
			st.logf("store: shard %d snapshot failed (will retry in %d ratings): %v", l.shard, sh.snapshotEvery, cerr)
		}
	}
	return ack, nil
}

// checkRating runs the validations of a rating that need no state, in
// the order Submit and recovery both report them. NaN fails every
// ordered comparison, so explicit finiteness checks must come first:
// without them a NaN value or day sails past the range guards and
// poisons every downstream aggregate.
func checkRating(rater string, value, day float64) error {
	switch {
	case math.IsNaN(value) || math.IsInf(value, 0):
		return fmt.Errorf("%w: non-finite value %v", ErrBadRating, value)
	case math.IsNaN(day) || math.IsInf(day, 0):
		return fmt.Errorf("%w: non-finite day %v", ErrBadRating, day)
	case value < dataset.MinValue || value > dataset.MaxValue:
		return fmt.Errorf("%w: value %v", ErrBadRating, value)
	case rater == "":
		return fmt.Errorf("%w: empty rater", ErrBadRating)
	}
	return nil
}

// Generation returns the store's change count: it starts at 1 and grows
// by one with every applied submit and every Load, after the change is in
// the rating state. A reader that calls Generation before View therefore
// gets a view holding at least every change the generation counts, so a
// cache built from that view may be recorded as covering the generation.
func (st *Store) Generation() uint64 {
	return st.gen.Load()
}

// View returns a consistent snapshot of the combined dataset: all shard
// mutexes are held simultaneously (ascending index; cheap — only product
// headers are copied), so the dataset is a single point in time. Its
// series are never mutated below a view's length, and views are
// capacity-capped, so later submissions never show through and the caller
// may Insert into them freely.
func (st *Store) View() *dataset.Dataset {
	st.mu.RLock()
	defer st.mu.RUnlock()
	d := &dataset.Dataset{HorizonDays: st.horizon, Products: make([]dataset.Product, len(st.products))}
	for _, sh := range st.shards {
		//lint:ignore lockorder state mutexes are acquired in ascending shard order, the documented instance order for the consistent cut
		sh.mu.Lock()
	}
	for i, sh := range st.shards {
		sh.cutLocked(d.Products, st.globals[i])
	}
	for _, sh := range st.shards {
		sh.mu.Unlock()
	}
	return d
}

// Load replaces all rating state with the given dataset: it is partitioned
// by the routing hash, validated (one rating per rater per product), and —
// on a durable store — checkpointed shard by shard so the load survives a
// crash. The product set and registration order become the dataset's.
//
// Load is atomic in memory (every shard gate is held across the swap) but
// not across shard WALs: if checkpointing shard k fails after shards
// 0..k-1 compacted, memory still holds the old state while some shard
// snapshots already hold the new — the operator retries the Load or
// restores storage before restarting.
func (st *Store) Load(ctx context.Context, d *dataset.Dataset) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	n := len(st.shards)
	clone := d.Clone()
	parts := make([]*dataset.Dataset, n)
	globals := make([][]int, n)
	// Each shard's raters are interned into a new dictionary, with room
	// for its largest product's raters and a quarter more (raters rate
	// many products). A rater is a duplicate when its stamp is already its
	// product's, g+1; an ordinal stays below its shard's rating count.
	counts, most := make([]int, n), make([]int, n)
	for _, p := range clone.Products {
		s := Route(p.ID, n)
		counts[s], most[s] = counts[s]+len(p.Ratings), max(most[s], len(p.Ratings))
	}
	raters, ords := make([]*trust.Symbols, n), make([][][]uint32, n)
	for i := 0; i < n; i++ {
		parts[i], raters[i] = &dataset.Dataset{HorizonDays: clone.HorizonDays}, trust.NewSymbols(most[i]+most[i]/4)
	}
	stamps := make([]int32, slices.Max(counts))
	products := make([]string, 0, len(clone.Products))
	byID := make(map[string]loc, len(clone.Products))
	for g, p := range clone.Products {
		s := Route(p.ID, n)
		col := make([]uint32, len(p.Ratings))
		for j, r := range p.Ratings {
			if raters[s], col[j] = raters[s].Intern(r.Rater); stamps[col[j]] == int32(g+1) {
				return fmt.Errorf("%w: rater %q on %q", ErrDuplicateRating, r.Rater, p.ID)
			}
			stamps[col[j]] = int32(g + 1)
		}
		if _, dup := byID[p.ID]; dup {
			return fmt.Errorf("store: duplicate product %q", p.ID)
		}
		byID[p.ID] = loc{shard: s, pos: len(parts[s].Products)}
		parts[s].Products = append(parts[s].Products, p)
		ords[s] = append(ords[s], col)
		globals[s] = append(globals[s], g)
		products = append(products, p.ID)
	}
	// Quiesce every shard (exclusive gates, ascending) so the swap is one
	// point in time for submissions and checkpoints alike.
	for _, sh := range st.shards {
		//lint:ignore lockorder gates are acquired in ascending shard order, the documented instance order for multi-shard holds
		sh.gate.Lock()
	}
	defer func() {
		for _, sh := range st.shards {
			sh.gate.Unlock()
		}
	}()
	for i, sh := range st.shards {
		if sh.wal == nil {
			continue
		}
		// Load is a stop-the-world bulk replacement (boot/admin path, never
		// the serving path): holding the topology lock across the per-shard
		// checkpoints is the point — nothing may observe a half-swapped store.
		if err := sh.wal.Compact(parts[i], raters[i], ords[i]); err != nil {
			return fmt.Errorf("%w: checkpoint loaded dataset: %v", ErrUnavailable, err)
		}
	}
	for i, sh := range st.shards {
		sh.mu.Lock()
		sh.data, sh.raters, sh.ords = parts[i], raters[i], ords[i]
		sh.seen = make([][]uint64, len(parts[i].Products))
		sh.sinceSnapshot = 0
		sh.keepLog = false // the checkpoint above dropped what recovery skipped
		sh.mu.Unlock()
	}
	st.products = products
	st.byID = byID
	st.globals = globals
	st.gen.Add(1)
	return nil
}

// Checkpoint forces a snapshot + log compaction of every shard now. It is
// a no-op on a non-durable store. A ctx already cancelled on entry skips
// the compactions (the logs keep growing until the next trigger).
func (st *Store) Checkpoint(ctx context.Context) error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.shards[0].wal == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, sh := range st.shards {
		if err := sh.checkpoint(); err != nil {
			return fmt.Errorf("%w: %v", ErrUnavailable, shardErr(len(st.shards), i, err))
		}
	}
	return nil
}

// Close compacts every shard whose log is non-empty, so the next Open
// reads snapshots only, then flushes and closes every shard WAL (no-op
// when non-durable). Shards close concurrently, as Open replays them. A
// shard whose WAL has failed is not compacted: its log keeps what the
// snapshot lacks. Nor is one whose recovery skipped records (a product
// no longer registered, a day past a shrunk horizon): the snapshot would
// drop them, and a reopen with the old configuration would miss them. A
// compaction that fails leaves the previous snapshot and log in place,
// which only costs the next Open replay time, so it is logged; Close
// returns it only when it failed the WAL itself, as a failed fsync does.
// The store rejects further durable submissions afterwards.
func (st *Store) Close() error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	errs := make([]error, len(st.shards))
	var wg sync.WaitGroup
	for i, sh := range st.shards {
		sh.mu.Lock()
		w, keepLog := sh.wal, sh.keepLog
		sh.mu.Unlock()
		if w == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.Size() > 0 && w.Err() == nil && !keepLog {
				if err := sh.checkpoint(); err != nil {
					if w.Err() != nil {
						errs[i] = err
					} else {
						st.logf("store: shard %d snapshot on close failed, the next start replays its log: %v", i, err)
					}
				}
			}
			if err := w.Close(); err != nil && errs[i] == nil {
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return shardErr(len(st.shards), i, err)
		}
	}
	return nil
}

// ReadFile returns the named file beside the manifest in the WAL base
// directory; ok is false when it is absent or the store is in memory.
// The store itself never reads such a file.
func (st *Store) ReadFile(name string) (data []byte, ok bool, err error) {
	st.mu.RLock()
	base := st.base
	st.mu.RUnlock()
	if base == nil {
		return nil, false, nil
	}
	return wal.ReadFile(base, name)
}

// WriteFile atomically replaces the named file beside the manifest
// (through name.tmp, fsynced, then renamed). It is a no-op in memory.
func (st *Store) WriteFile(name string, data []byte) error {
	st.mu.RLock()
	base := st.base
	st.mu.RUnlock()
	if base == nil {
		return nil
	}
	return wal.WriteFileAtomic(base, name+".tmp", name, data, name)
}

// Durable reports whether the store writes a WAL.
func (st *Store) Durable() bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.shards[0].wal != nil
}

// WALErr returns the first shard's sticky write/fsync failure, if any —
// the store can no longer accept durable submissions on that shard and the
// process should be restarted. Nil for a non-durable store.
func (st *Store) WALErr() error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	for i, sh := range st.shards {
		sh.mu.Lock()
		w := sh.wal
		sh.mu.Unlock()
		if w == nil {
			return nil
		}
		if err := w.Err(); err != nil {
			return shardErr(len(st.shards), i, err)
		}
	}
	return nil
}

// WALDegraded reports whether any shard's fsync-latency breaker is open
// (submissions on it are acknowledged durability=pending).
func (st *Store) WALDegraded() bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, sh := range st.shards {
		sh.mu.Lock()
		w := sh.wal
		sh.mu.Unlock()
		if w != nil && w.Degraded() {
			return true
		}
	}
	return false
}

// shardErr qualifies a per-shard error with its shard index when the store
// actually has more than one shard (single-shard errors read exactly like
// the pre-sharding service's).
func shardErr(shards, i int, err error) error {
	if shards == 1 {
		return err
	}
	return fmt.Errorf("shard %d: %w", i, err)
}
