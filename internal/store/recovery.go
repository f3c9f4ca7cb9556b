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
	// Shards is the shard count; 0 or 1 keeps the legacy single-stream
	// layout (snapshot + log at the top of the directory, no manifest), so
	// WAL directories written before sharding stay readable byte-for-byte.
	// With more shards the directory gains a manifest and one shard-NNN/
	// subdirectory per shard; an existing legacy directory is migrated in
	// place on first open.
	Shards int
	// SyncEvery, SyncInterval, StallThreshold, ProbeInterval set each
	// shard's independent group-commit policy; see wal.Options.
	SyncEvery      int
	SyncInterval   time.Duration
	StallThreshold time.Duration
	ProbeInterval  time.Duration
	// SnapshotEvery checkpoints a shard and resets its log after this many
	// ratings accepted on that shard. 0 disables automatic snapshots.
	SnapshotEvery int
	// Now substitutes the wall clock, for tests. Defaults to time.Now.
	Now func() time.Time
	// Logf receives operational log lines (snapshot failures, migration
	// notices). Defaults to discarding.
	Logf func(format string, args ...any)
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
	// MigratedFromLegacy is set when this open converted a legacy
	// single-stream directory to the sharded layout in place.
	MigratedFromLegacy bool
}

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
// Layout compatibility: with Shards<=1 the directory is the legacy
// single-stream layout and stays that way. With Shards>1 a fresh directory
// gets a manifest + shard subdirectories; a legacy directory is migrated
// in place (replay, re-partition, per-shard compact, publish manifest,
// remove legacy files — crash-safe at every step because the manifest is
// published only after every shard snapshot is durable); a sharded
// directory whose manifest disagrees with Shards or the routing hash is
// refused with an error naming both values.
//
//lint:ignore ctxfirst boot-time recovery precedes serving; there is no request context to propagate and a partial replay must not be served
func Open(horizonDays float64, products []string, opts Options) (*Store, *RecoveryReport, error) {
	st, err := New(horizonDays, products, opts.Shards)
	if err != nil {
		return nil, nil, err
	}
	if opts.Logf != nil {
		st.logf = opts.Logf
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	for _, sh := range st.shards {
		sh.now = opts.Now
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
		Now:            opts.Now,
	}

	m, err := wal.ReadManifest(fsys)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	legacy := wal.HasLegacyState(fsys)
	switch {
	case m != nil:
		if m.Shards != n {
			return nil, nil, fmt.Errorf("store: WAL directory was written with %d shards but the store is configured for %d: reopen with -shards=%d (or migrate by restoring from a checkpoint)", m.Shards, n, m.Shards)
		}
		if m.Hash != wal.RouteHashName {
			return nil, nil, fmt.Errorf("store: WAL manifest routing hash %q does not match this build's %q", m.Hash, wal.RouteHashName)
		}
		if legacy {
			// A migration published its manifest but crashed before removing
			// the legacy files; every shard snapshot is already durable, so
			// just finish the cleanup.
			if err := wal.RemoveLegacyState(fsys); err != nil {
				return nil, nil, fmt.Errorf("store: remove migrated legacy state: %w", err)
			}
		}
	case legacy && n > 1:
		report, err := st.migrateLegacy(fsys, walOpts)
		if err != nil {
			return nil, nil, err
		}
		return st, report, nil
	case n > 1:
		if err := wal.WriteManifest(fsys, wal.Manifest{Version: wal.ManifestVersion, Shards: n, Hash: wal.RouteHashName}); err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
	}

	fses, err := shardFS(fsys, n, m != nil)
	if err != nil {
		return nil, nil, err
	}
	report, err := st.openShards(fses, walOpts)
	if err != nil {
		return nil, nil, err
	}
	return st, report, nil
}

// shardFS resolves the per-shard filesystems: the base itself for the
// legacy single-stream layout, shard-NNN/ subdirectories otherwise. A
// manifest always implies the subdirectory layout, even with one shard.
func shardFS(fsys wal.FS, n int, manifest bool) ([]wal.FS, error) {
	if n == 1 && !manifest {
		return []wal.FS{fsys}, nil
	}
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
			start := walOpts.Now()
			defer func() { st.replayNanos[i] = walOpts.Now().Sub(start).Nanoseconds() }()
			w, rec, err := wal.Open(fses[i], walOpts)
			if err != nil {
				results[i].err = err
				return
			}
			results[i].rep.TruncatedBytes = rec.TruncatedBytes
			st.replay(rec, &results[i].rep, func(string) int { return i })
			sh := st.shards[i]
			sh.wal = w
			sh.sinceSnapshot = len(rec.Tail())
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
			return nil, fmt.Errorf("store: %w", shardErr(len(st.shards), i, results[i].err))
		}
	}
	report := &RecoveryReport{}
	for i := range results {
		report.merge(&results[i].rep)
	}
	return report, nil
}

// replay applies recovered records (the checkpoint's, then the log
// tail's) into in-memory state through the recovery validation, folding
// outcomes into report. shardOf names the shard each record is applied
// to. It runs during Open, before the store escapes: one goroutine per
// shard, each touching only its own shard, or the single migration pass.
func (st *Store) replay(rec *wal.Recovery, report *RecoveryReport, shardOf func(product string) int) {
	st.presize(rec.Records, shardOf)
	for j, r := range rec.Records {
		applied := &report.ReplayedRatings
		if j < rec.SnapshotRecords {
			applied = &report.SnapshotRatings
		}
		st.recoverRating(shardOf(r.Product), r.Product, r.Rater, r.Value, r.Day, applied, report)
	}
}

// presize grows the series and seen set of every product the records name
// once, to hold all of the product's records, so applying them never
// regrows either. It grows only products that route to the shard shardOf
// applies their records to: openShards replays shards concurrently, and a
// misrouted record (skipped when applied) must not touch another shard's
// state. Replay runs on a fresh store, so the seen sets it replaces are
// empty.
//
//lint:ignore lockheld only called from replay during Open, before the Store is returned to any other goroutine; each goroutine grows only its own shard's products
func (st *Store) presize(recs []wal.Record, shardOf func(product string) int) {
	counts := make([][]int, len(st.shards))
	for _, r := range recs {
		l, ok := st.byID[r.Product]
		if !ok || l.shard != shardOf(r.Product) {
			continue
		}
		if counts[l.shard] == nil {
			counts[l.shard] = make([]int, len(st.shards[l.shard].data.Products))
		}
		counts[l.shard][l.pos]++
	}
	for i, c := range counts {
		sh := st.shards[i]
		for pos, n := range c {
			if n > 0 {
				p := &sh.data.Products[pos]
				p.Ratings = slices.Grow(p.Ratings, n)
				sh.seen[pos] = make(map[string]bool, n)
			}
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
	if day < sh.dirtyFrom {
		sh.dirtyFrom = day
	}
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

// migrateLegacy converts a legacy single-stream WAL directory to the
// sharded layout in place: replay the legacy snapshot + log through the
// recovery validation, partition by the routing hash, compact every shard
// into its own subdirectory, durably publish the manifest, and only then
// remove the legacy files. A crash at any point is safe: without a
// manifest the next open redoes the migration from the still-intact legacy
// state (stale shard subdirectories are overwritten by Compact); with a
// manifest the next open serves the shards and merely re-removes leftovers.
//
//lint:ignore lockheld runs during Open before the Store escapes; no concurrent access exists yet
func (st *Store) migrateLegacy(fsys wal.FS, walOpts wal.Options) (*RecoveryReport, error) {
	legacyWAL, rec, err := wal.Open(fsys, wal.Options{Now: walOpts.Now})
	if err != nil {
		return nil, fmt.Errorf("store: read legacy WAL: %w", err)
	}
	if err := legacyWAL.Close(); err != nil {
		return nil, fmt.Errorf("store: close legacy WAL: %w", err)
	}
	report := &RecoveryReport{TruncatedBytes: rec.TruncatedBytes, MigratedFromLegacy: true}
	// A product this store does not register maps to shard 0, where the
	// validation counts it as a skip.
	st.replay(rec, report, func(product string) int { return st.byID[product].shard })

	fses, err := shardFS(fsys, len(st.shards), true)
	if err != nil {
		return nil, err
	}
	for i, sh := range st.shards {
		// Whatever a crashed earlier migration left in this subdirectory is
		// superseded: its recovery is discarded and Compact below rewrites
		// the snapshot and resets the log.
		w, _, err := wal.Open(fses[i], walOpts)
		if err != nil {
			return nil, fmt.Errorf("store: open %s during migration: %w", wal.ShardDir(i), err)
		}
		if err := w.Compact(sh.data); err != nil {
			w.Close()
			return nil, fmt.Errorf("store: compact %s during migration: %w", wal.ShardDir(i), err)
		}
		sh.wal = w
		sh.sinceSnapshot = 0
	}
	if err := wal.WriteManifest(fsys, wal.Manifest{Version: wal.ManifestVersion, Shards: len(st.shards), Hash: wal.RouteHashName}); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := wal.RemoveLegacyState(fsys); err != nil {
		return nil, fmt.Errorf("store: remove legacy state after migration: %w", err)
	}
	st.logf("store: migrated legacy WAL directory to %d shards (%d snapshot + %d replayed ratings)",
		len(st.shards), report.SnapshotRatings, report.ReplayedRatings)
	return report, nil
}

// isNonFinite reports NaN or ±Inf.
func isNonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
