package store

import (
	"errors"
	"fmt"
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
	// automatic snapshots (the logs grow until Close, which compacts them).
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
	// dropped; SkipReasons holds the first few, for logs, shard by shard
	// and within a shard in file order, the checkpoint's first.
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
			sh.keepLog = results[i].rep.SkippedRecords > 0
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

// replayer applies shard i's runs, as its WAL decodes them, through the
// recovery validation, folding outcomes into report. It runs during
// Open, before the store escapes: one goroutine per shard, each touching
// only its own shard.
type replayer struct {
	st     *Store
	shard  int
	report *RecoveryReport
	// logCounts[pos] counts the log frames Expect announced for the
	// shard's product at partition position pos (nil when it announced
	// none).
	logCounts []int
	// raters is the duplicate check's scratch set, reused from run to
	// run: the raters applied to the run's product so far. A product's
	// own set is built on its first submit (shard.ratersLocked). It was
	// made with room for room raters.
	raters map[string]bool
	room   int
	// skipAt[k] is the file position of the record behind
	// report.SkipReasons[k] (logSkip plus its frame for a log record).
	skipAt []int64
}

// logSkip orders a log record's skip after every checkpoint record's.
const logSkip = 1 << 48

// Expect notes a product's log frame count when the product routes to
// this shard. Any other product is skipped: openShards replays shards
// concurrently, and a misrouted record (skipped when applied) must not
// touch another shard's state.
func (r *replayer) Expect(product string, frames int) {
	l, ok := r.st.byID[product]
	if !ok || l.shard != r.shard {
		return
	}
	if r.logCounts == nil {
		r.logCounts = make([]int, len(r.st.globals[r.shard]))
	}
	r.logCounts[l.pos] = frames
}

// Replay applies one run to the shard, rating by rating in record order,
// through Submit's validation in Submit's order, with a routing check
// beside the product's existence (a record found in shard i's files must
// route there), counting its ratings as the checkpoint's or the log's and
// folding each outcome into the recovery report. The product is looked
// up once per run. Its first accepted record sizes its series once, to
// its log frames (logCounts) plus the run itself when it is the
// checkpoint's. An exact duplicate (same product, rater, value, day) is
// the expected residue of a crash mid-Compact and is dropped silently;
// anything else invalid is counted and sampled as a skip.
func (r *replayer) Replay(run wal.Run) {
	st, sh, report := r.st, r.st.shards[r.shard], r.report
	applied := &report.ReplayedRatings
	if run.Snapshot {
		applied = &report.SnapshotRatings
	}
	var runErr error
	l, ok := st.byID[run.Product]
	switch {
	case !ok:
		runErr = fmt.Errorf("%w: %q", ErrUnknownProduct, run.Product)
	case l.shard != r.shard:
		runErr = fmt.Errorf("store: product %q routes to shard %d but its record was found in shard %d's log", run.Product, l.shard, r.shard)
	}
	var p *dataset.Product
	var ratings dataset.Series
	if runErr == nil {
		p = &sh.data.Products[l.pos]
		ratings = p.Ratings
		// The set starts empty on the product's first run, and from the
		// raters already applied on a later one. It is remade, not grown,
		// for a product with more raters than it has room for.
		if need := r.expected(run, l.pos) + len(ratings); need > r.room {
			r.raters, r.room = make(map[string]bool, need), need
		}
		clear(r.raters)
		for _, x := range ratings {
			r.raters[x.Rater] = true
		}
	}
	applied0 := *applied
	j := 0
	run.Each(func(rec wal.Record) {
		err := checkRating(rec.Rater, rec.Value, rec.Day)
		if err == nil {
			err = runErr
		}
		if err == nil {
			err = checkDay(rec.Day, sh.horizon)
		}
		if err == nil && ratings == nil {
			ratings = make(dataset.Series, 0, r.expected(run, l.pos))
		}
		if err == nil {
			// One probe checks and sets: the set grows unless rater was in it.
			n := len(r.raters)
			if r.raters[rec.Rater] = true; len(r.raters) == n {
				err = fmt.Errorf("%w: rater %q on %q", ErrDuplicateRating, rec.Rater, run.Product)
			}
		}
		switch {
		case err == nil:
			ratings = ratings.Insert(dataset.Rating{Day: rec.Day, Value: rec.Value, Rater: rec.Rater})
			*applied++
		case errors.Is(err, ErrDuplicateRating) && hasExactRating(ratings, rec):
			report.DuplicateRecords++
		default:
			report.SkippedRecords++
			r.sample(run, j, rec, err)
		}
		j++
	})
	if p != nil {
		p.Ratings = ratings
		p.Version += uint64(*applied - applied0)
	}
}

// expected returns how many records the run brings to the product at
// partition position pos: its own, and the log's too when it is the
// checkpoint's.
func (r *replayer) expected(run wal.Run, pos int) int {
	if run.Snapshot && r.logCounts != nil {
		return run.Len() + r.logCounts[pos]
	}
	return run.Len()
}

// sample keeps the reason for skipping the run's j-th record rec when it
// is among the first maxSkipReasons skips in file order, the
// checkpoint's before the log's: a log replays product by product, so a
// skip can precede one already kept.
func (r *replayer) sample(run wal.Run, j int, rec wal.Record, err error) {
	at := int64(run.Frame(j))
	if !run.Snapshot {
		at += logSkip
	}
	k, _ := slices.BinarySearch(r.skipAt, at)
	if k >= maxSkipReasons {
		return
	}
	reasons := &r.report.SkipReasons
	r.skipAt = slices.Insert(r.skipAt, k, at)
	*reasons = slices.Insert(*reasons, k, fmt.Sprintf("%s/%s value=%v day=%v: %v", run.Product, rec.Rater, rec.Value, rec.Day, err))
	if len(r.skipAt) > maxSkipReasons {
		r.skipAt, *reasons = r.skipAt[:maxSkipReasons], (*reasons)[:maxSkipReasons]
	}
}

// hasExactRating reports whether rec's rater's rating in s has exactly
// rec's value and day.
func hasExactRating(s dataset.Series, rec wal.Record) bool {
	for _, r := range s {
		if r.Rater == rec.Rater {
			//lint:ignore floateq WAL replay dedup is bit-exact by design: a re-replayed record carries the identical float bits, anything else is a conflicting duplicate
			return r.Value == rec.Value && r.Day == rec.Day
		}
	}
	return false
}
