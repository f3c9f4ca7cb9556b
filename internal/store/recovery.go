package store

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/wal"
)

// Options configures the durable variant of the store.
type Options struct {
	// Dir is the WAL base directory (ignored when FS is set).
	Dir string
	// FS overrides the filesystem the WALs write through — used by tests
	// to inject faults (internal/faultfs). Defaults to wal.OSDir(Dir).
	FS wal.FS
	// Shards is the shard count; 0 means 1. State and WAL streams are
	// sharded by product: the directory holds a manifest recording the
	// count and one shard-NNN/ subdirectory per shard, whatever the count.
	// A mismatched reopen fails, and a directory in the single-stream
	// layout of earlier builds is refused (ErrLegacyLayout).
	Shards int
	// SyncEvery and SyncInterval set each shard's independent group-commit
	// policy; see wal.Options. Zero SyncEvery means fsync on every append.
	SyncEvery    int
	SyncInterval time.Duration
	// StallThreshold arms each shard WAL's fsync-latency circuit breaker: a
	// successful fsync slower than this trips the breaker and flips submit
	// acks to durability=pending until a background probe observes a fast
	// fsync again. Zero disables the breaker. ProbeInterval sets how often
	// the open breaker probes (and group-commits pending records); zero
	// means the wal package default.
	StallThreshold time.Duration
	ProbeInterval  time.Duration
	// SnapshotEvery checkpoints a shard and resets its log after this many
	// ratings accepted on that shard, bounding recovery time. 0 disables
	// automatic snapshots (the logs grow until Close).
	SnapshotEvery int
}

// RecoveryReport describes what a durable boot found on disk, merged
// across all shards in shard order.
type RecoveryReport struct {
	// SnapshotRatings and ReplayedRatings count ratings restored from the
	// checkpoints and from the log tails, respectively.
	SnapshotRatings int
	ReplayedRatings int
	// DuplicateRecords counts log records that exactly matched a rating
	// already restored — the benign artifact of a crash between snapshot
	// publication and log reset, deduplicated silently.
	DuplicateRecords int
	// SkippedRecords counts records that failed validation (unknown
	// product, out-of-range value or day, conflicting duplicate) and were
	// dropped; SkipReasons holds the first few, for logs.
	SkippedRecords int
	SkipReasons    []string
	// TruncatedBytes counts torn log-tail bytes discarded by the WALs.
	TruncatedBytes int64
}

// ErrLegacyLayout is wrapped by the error Open returns for a directory
// without a manifest that holds a top-level wal.log or snapshot.json: the
// single-stream layout of earlier builds, which this one neither reads nor
// migrates. Opening it as empty would drop its history.
var ErrLegacyLayout = errors.New("legacy single-stream WAL layout")

// maxSkipReasons bounds the per-boot skip-reason sample in RecoveryReport.
const maxSkipReasons = 16

// merge folds a per-shard report into the boot-wide one, sampling skip
// reasons in shard order up to the cap.
func (r *RecoveryReport) merge(o *RecoveryReport) {
	r.SnapshotRatings += o.SnapshotRatings
	r.ReplayedRatings += o.ReplayedRatings
	r.DuplicateRecords += o.DuplicateRecords
	r.SkippedRecords += o.SkippedRecords
	r.TruncatedBytes += o.TruncatedBytes
	for _, reason := range o.SkipReasons {
		if len(r.SkipReasons) >= maxSkipReasons {
			break
		}
		r.SkipReasons = append(r.SkipReasons, reason)
	}
}

// Open creates a durable sharded store over opts.Dir (or opts.FS),
// recovering existing state before returning. Shards replay their
// snapshots and log tails concurrently — one goroutine per shard — and the
// per-shard RecoveryReports are merged in shard order, so the totals are
// deterministic for a given on-disk state.
//
// Layout: the directory holds wal-manifest.json and one shard-NNN/
// subdirectory per shard, at every shard count. A fresh directory gets the
// manifest before any shard is opened. A directory whose manifest
// disagrees with Shards or the routing hash is refused with an error
// naming both values; a directory without a manifest but with top-level
// WAL files is refused with ErrLegacyLayout.
//
//lint:ignore ctxfirst boot-time recovery precedes serving; there is no request context to propagate and a partial replay must not be served
func Open(horizonDays float64, products []string, opts Options) (*Store, *RecoveryReport, error) {
	st, err := New(horizonDays, products, opts.Shards)
	if err != nil {
		return nil, nil, err
	}
	for _, sh := range st.shards {
		sh.snapshotEvery = opts.SnapshotEvery
	}
	fsys := opts.FS
	if fsys == nil {
		if opts.Dir == "" {
			return nil, nil, errors.New("store: WAL dir required")
		}
		fsys, err = wal.OSDir(opts.Dir)
		if err != nil {
			return nil, nil, fmt.Errorf("store: open WAL dir: %w", err)
		}
	}
	n := len(st.shards)
	walOpts := wal.Options{
		SyncEvery:      opts.SyncEvery,
		SyncInterval:   opts.SyncInterval,
		StallThreshold: opts.StallThreshold,
		ProbeInterval:  opts.ProbeInterval,
	}

	m, err := wal.ReadManifest(fsys)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if m == nil {
		if wal.HasLegacyState(fsys) {
			return nil, nil, fmt.Errorf("store: %w: the directory has a top-level wal.log or snapshot.json and no wal-manifest.json; migrate it by opening it once with an earlier build at -shards 2 or more", ErrLegacyLayout)
		}
		m = &wal.Manifest{Version: wal.ManifestVersion, Shards: n, Hash: wal.RouteHashName}
		if err := wal.WriteManifest(fsys, *m); err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
	}
	if m.Shards != n {
		return nil, nil, fmt.Errorf("store: WAL directory was written with %d shards but the store is configured for %d: reopen with -shards=%d", m.Shards, n, m.Shards)
	}
	if m.Hash != wal.RouteHashName {
		return nil, nil, fmt.Errorf("store: WAL manifest routing hash %q does not match this build's %q", m.Hash, wal.RouteHashName)
	}

	fses, err := shardFS(fsys, n)
	if err != nil {
		return nil, nil, err
	}
	report, err := st.openShards(fses, walOpts)
	if err != nil {
		return nil, nil, err
	}
	st.base = fsys
	return st, report, nil
}

// shardFS resolves the per-shard filesystems, the shard-NNN/
// subdirectories of the base.
func shardFS(fsys wal.FS, n int) ([]wal.FS, error) {
	out := make([]wal.FS, n)
	for i := range out {
		sub, err := wal.Sub(fsys, wal.ShardDir(i))
		if err != nil {
			return nil, fmt.Errorf("store: open %s: %w", wal.ShardDir(i), err)
		}
		out[i] = sub
	}
	return out, nil
}

// openShards opens and replays every shard WAL concurrently and merges the
// per-shard reports in shard order. On any failure every WAL opened so far
// is closed and the first error (by shard index) is returned.
//
//lint:ignore lockheld runs during Open before the Store is returned to any other goroutine; each goroutine writes only its own replayNanos element
func (st *Store) openShards(fses []wal.FS, walOpts wal.Options) (*RecoveryReport, error) {
	type result struct {
		w   *wal.WAL
		rep RecoveryReport
		err error
	}
	results := make([]result, len(st.shards))
	st.replayNanos = make([]int64, len(st.shards))
	var wg sync.WaitGroup
	for i := range st.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			defer func() { st.replayNanos[i] = time.Since(start).Nanoseconds() }()
			w, rec, err := wal.Open(fses[i], walOpts, &replayer{st: st, shard: i, report: &results[i].rep})
			if err != nil {
				results[i].err = err
				return
			}
			results[i].rep.TruncatedBytes = rec.TruncatedBytes
			sh := st.shards[i]
			sh.wal = w
			sh.sinceSnapshot = rec.TailRecords
			results[i].w = w
		}(i)
	}
	wg.Wait()
	for i := range results {
		if results[i].err != nil {
			for j := range results {
				if results[j].w != nil {
					results[j].w.Close()
				}
			}
			return nil, fmt.Errorf("store: %s: %w", wal.ShardDir(i), results[i].err)
		}
	}
	report := &RecoveryReport{}
	for i := range results {
		report.merge(&results[i].rep)
	}
	return report, nil
}

// replayer applies shard i's records, as its WAL decodes them, through
// the recovery validation, folding outcomes into report. It runs during
// Open, before the store escapes: one goroutine per shard, each touching
// only its own shard.
type replayer struct {
	st     *Store
	shard  int
	report *RecoveryReport
	// counts[pos] counts the frames Expect saw for the shard's product at
	// partition position pos, until the first Replay presizes from them.
	counts []int
	// last is the ID of the product Expect counted last, at position
	// lastPos. A snapshot holds each product's records in one run, so a
	// run costs one routing lookup.
	last    string
	lastPos int
}

// Expect counts one frame against its product when the product routes to
// this shard. Any other frame is skipped: openShards replays shards
// concurrently, and a misrouted record (skipped when applied) must not
// touch another shard's state.
func (r *replayer) Expect(product []byte) {
	if r.counts == nil || string(product) != r.last {
		l, ok := r.st.byID[string(product)]
		if !ok || l.shard != r.shard {
			return
		}
		if r.counts == nil {
			r.counts = make([]int, len(r.st.globals[r.shard]))
		}
		r.last, r.lastPos = r.st.products[r.st.globals[r.shard][l.pos]], l.pos
	}
	r.counts[r.lastPos]++
}

// Replay applies one record, presizing the shard first on the first call.
func (r *replayer) Replay(rec wal.Record, snapshot bool) {
	if r.counts != nil {
		r.st.presize(r.shard, r.counts)
		r.counts = nil
	}
	applied := &r.report.ReplayedRatings
	if snapshot {
		applied = &r.report.SnapshotRatings
	}
	r.st.recoverRating(r.shard, rec.Product, rec.Rater, rec.Value, rec.Day, applied, r.report)
}

// presize grows the series and seen set of every shard-i product at
// partition position pos once, to hold counts[pos] records, so applying
// them never regrows either. It runs during Open, before the Store is
// returned to any other goroutine, on a fresh store, so the seen sets it
// replaces are empty; each replay goroutine grows only its own shard.
func (st *Store) presize(i int, counts []int) {
	sh := st.shards[i]
	for pos, n := range counts {
		if n > 0 {
			p := &sh.data.Products[pos]
			p.Ratings = slices.Grow(p.Ratings, n)
			sh.seen[pos] = make(map[string]bool, n)
		}
	}
}

// recoverRating applies one recovered rating to shard i through the same
// validation as Submit, folding the outcome into the recovery report. An
// exact duplicate (same product, rater, value, day) is the expected
// residue of a crash mid-Compact and is dropped silently; anything else
// invalid — including a record whose product routes to a different shard —
// is counted and sampled as a skip.
func (st *Store) recoverRating(i int, product, rater string, value, day float64, applied *int, report *RecoveryReport) {
	err := st.applyRecovered(i, product, rater, value, day)
	switch {
	case err == nil:
		*applied++
	case errors.Is(err, ErrDuplicateRating) && st.hasExactRating(product, rater, value, day):
		report.DuplicateRecords++
	default:
		report.SkippedRecords++
		if len(report.SkipReasons) < maxSkipReasons {
			report.SkipReasons = append(report.SkipReasons,
				fmt.Sprintf("%s/%s value=%v day=%v: %v", product, rater, value, day, err))
		}
	}
}

// applyRecovered validates and applies one rating to shard i's in-memory
// state during recovery — the same rules as the live Submit path, plus a
// routing check: a record found in shard i's log must actually route
// there.
//
//lint:ignore lockheld only called during Open, before the Store is returned to any other goroutine; each shard is touched by exactly one replay goroutine
func (st *Store) applyRecovered(i int, product, rater string, value, day float64) error {
	if isNonFinite(value) || value < dataset.MinValue || value > dataset.MaxValue {
		return fmt.Errorf("%w: value %v", ErrBadRating, value)
	}
	if rater == "" {
		return fmt.Errorf("%w: empty rater", ErrBadRating)
	}
	if isNonFinite(day) {
		return fmt.Errorf("%w: non-finite day %v", ErrBadRating, day)
	}
	sh := st.shards[i]
	if day < 0 || day >= sh.horizon {
		return fmt.Errorf("%w: day %v outside [0,%v)", ErrBadRating, day, sh.horizon)
	}
	l, ok := st.byID[product]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownProduct, product)
	}
	if l.shard != i {
		return fmt.Errorf("store: product %q routes to shard %d but its record was found in shard %d's log", product, l.shard, i)
	}
	seen := sh.seen[l.pos]
	if seen[rater] {
		return fmt.Errorf("%w: rater %q on %q", ErrDuplicateRating, rater, product)
	}
	seen[rater] = true
	p := &sh.data.Products[l.pos]
	p.Ratings = p.Ratings.Insert(dataset.Rating{Day: day, Value: value, Rater: rater})
	p.Version++
	return nil
}

// hasExactRating reports whether rater's recorded rating on product has
// exactly this value and day.
//
//lint:ignore lockheld only called from recoverRating during Open, before the Store is returned to any other goroutine
func (st *Store) hasExactRating(product, rater string, value, day float64) bool {
	l, ok := st.byID[product]
	if !ok {
		return false
	}
	for _, r := range st.shards[l.shard].data.Products[l.pos].Ratings {
		if r.Rater == rater {
			//lint:ignore floateq WAL replay dedup is bit-exact by design: a re-replayed record carries the identical float bits, anything else is a conflicting duplicate
			return r.Value == value && r.Day == day
		}
	}
	return false
}

// isNonFinite reports NaN or ±Inf.
func isNonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
