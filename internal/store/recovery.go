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
			sh.wal, sh.raters = w, rec.Raters
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
	// stamps[o] is the stamp of the last run that applied the rater of
	// ordinal o: the duplicate check of a run stamped stamp.
	stamps []uint32
	stamp  uint32
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
// up once per run. Its first accepted record sizes its series and
// ordinal column once, to its log frames (logCounts) plus the run itself
// when it is the checkpoint's. A rater is a duplicate when its ordinal
// already bears the run's stamp. An exact duplicate (same product,
// rater, value, day) is the expected residue of a crash mid-Compact and
// is dropped silently; anything else invalid is counted and sampled as a
// skip.
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
	if k := run.Raters.Len(); len(r.stamps) < k {
		r.stamps = append(r.stamps, make([]uint32, k+k/4-len(r.stamps))...)
	}
	// The run's stamp marks the raters already applied to its product:
	// none on the product's first run, its ordinal column on a later one.
	r.stamp++
	var p *dataset.Product
	var ratings dataset.Series
	var ords []uint32
	if runErr == nil {
		p, ords = &sh.data.Products[l.pos], sh.ords[l.pos]
		ratings = p.Ratings
		for _, o := range ords {
			r.stamps[o] = r.stamp
		}
	}
	for j, n := 0, run.Len(); j < n; j++ {
		o, value, day := run.At(j)
		rater := run.Raters.Name(o)
		err := checkRating(rater, value, day)
		if err == nil {
			err = runErr
		}
		if err == nil {
			err = checkDay(day, sh.horizon)
		}
		if err == nil && r.stamps[o] == r.stamp {
			err = fmt.Errorf("%w: rater %q on %q", ErrDuplicateRating, rater, run.Product)
		}
		switch {
		case err == nil:
			if ratings == nil {
				n := r.expected(run, l.pos)
				ratings, ords = make(dataset.Series, 0, n), make([]uint32, 0, n)
			}
			r.stamps[o] = r.stamp
			ratings, ords = insertRating(ratings, ords, dataset.Rating{Day: day, Value: value, Rater: rater}, o)
			*applied++
		case errors.Is(err, ErrDuplicateRating) && hasExactRating(ratings, ords, o, value, day):
			report.DuplicateRecords++
		default:
			report.SkippedRecords++
			r.sample(run, j, rater, value, day, err)
		}
	}
	if p != nil {
		p.Ratings, sh.ords[l.pos] = ratings, ords
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

// sample keeps the reason for skipping the run's j-th record (rater,
// value, day) when it is among the first maxSkipReasons skips in file
// order, the checkpoint's before the log's: a log replays product by
// product, so a skip can precede one already kept.
func (r *replayer) sample(run wal.Run, j int, rater string, value, day float64, err error) {
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
	*reasons = slices.Insert(*reasons, k, fmt.Sprintf("%s/%s value=%v day=%v: %v", run.Product, rater, value, day, err))
	if len(r.skipAt) > maxSkipReasons {
		r.skipAt, *reasons = r.skipAt[:maxSkipReasons], (*reasons)[:maxSkipReasons]
	}
}

// hasExactRating reports whether the rating in s of the rater with
// ordinal o (ords is s's ordinal column) has exactly value and day.
func hasExactRating(s dataset.Series, ords []uint32, o uint32, value, day float64) bool {
	if j := slices.Index(ords, o); j >= 0 {
		//lint:ignore floateq WAL replay dedup is bit-exact by design: a re-replayed record carries the identical float bits, anything else is a conflicting duplicate
		return s[j].Value == value && s[j].Day == day
	}
	return false
}
