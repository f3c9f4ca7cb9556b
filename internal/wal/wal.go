// Package wal implements the write-ahead log that makes the online rating
// service durable: an append-only, length-prefixed, CRC32-checksummed log
// of submitted ratings plus periodic full-dataset snapshots, so recovery
// after a crash costs O(snapshot + log tail) rather than O(all history).
// The log frames each record with its own CRC, so a torn tail is found
// at the record it tears; a snapshot is never torn, so it holds one
// checksummed block of columns per product.
//
// Layout inside one WAL directory (the store gives each shard its own,
// shard-NNN/ under a base that holds the Manifest):
//
//	snapshot.json  full dataset checkpoint: binary records behind a
//	               magic+version header (the name predates the format;
//	               a JSON checkpoint from an earlier build fails as corrupt)
//	wal.log        ratings appended since the snapshot
//	snapshot.tmp   in-flight checkpoint; removed on open
//
// Durability contract: Append fsyncs per the group-commit policy
// (SyncEvery/SyncInterval), so with SyncEvery=1 every acknowledged rating
// is durable before Append returns; with a larger batch, up to
// SyncEvery−1 acknowledged ratings may be lost to a crash — the standard
// group-commit trade-off. A failed fsync poisons the log permanently
// (the kernel may have dropped the dirty pages, so nothing written since
// the last successful sync can be trusted); every later Append returns the
// same error and the service must be restarted to recover.
//
// Crash safety: a torn final record (short header, short payload, or CRC
// mismatch) is detected on open and truncated away. A published snapshot
// was fsynced before its rename, so a bad snapshot is corruption and Open
// fails (ErrCorruptSnapshot) instead of truncating it. Compact orders its
// writes (write tmp, fsync, rename, reset log) so that a crash at any
// point leaves either the old snapshot+log or the new snapshot with a
// possibly redundant log, which replay deduplicates.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/trust"
)

// File names inside the WAL directory.
const (
	logName      = "wal.log"
	snapshotName = "snapshot.json"
	snapshotTmp  = "snapshot.tmp"
)

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("wal: closed")

// Options configures the group-commit policy.
type Options struct {
	// SyncEvery fsyncs after this many appended records. 0 or 1 means
	// every append (strict durability); larger values amortize fsyncs
	// under heavy traffic.
	SyncEvery int
	// SyncInterval, when positive, forces an fsync on the next Append once
	// this much time has passed since the last sync, bounding the
	// durability window of a lightly loaded batch.
	SyncInterval time.Duration
	// StallThreshold, when positive, arms the fsync-latency circuit
	// breaker: a successful fsync slower than this trips the breaker, and
	// while it is open appends return AckPending without fsyncing — the log
	// keeps every record (never silent loss) but durability is deferred to
	// a background group commit. A probe goroutine re-syncs every
	// ProbeInterval; once a probe completes under the threshold the breaker
	// closes and appends ack durable again. 0 disables the breaker.
	StallThreshold time.Duration
	// ProbeInterval paces the breaker's background probe syncs. Defaults
	// to 250ms when the breaker is armed.
	ProbeInterval time.Duration
	// Now substitutes the wall clock, for tests. Defaults to time.Now.
	Now func() time.Time
}

// defaultProbeInterval paces breaker probes when ProbeInterval is unset.
const defaultProbeInterval = 250 * time.Millisecond

// Metrics holds the WAL's observability handles. Every field is optional:
// nil handles record nothing (the obs package's no-op plane), so an
// uninstrumented WAL pays one nil check per event. Attach with SetMetrics.
type Metrics struct {
	// FsyncSeconds observes the latency of every fsync the WAL issues,
	// foreground group commits and breaker probes alike.
	FsyncSeconds *obs.Histogram
	// BatchSize observes how many appended records each successful sync
	// made durable — the realized group-commit batch.
	BatchSize *obs.Histogram
	// BreakerOpen is 1 while the fsync-latency breaker is open (appends
	// acknowledged AckPending), 0 otherwise.
	BreakerOpen *obs.Gauge
}

// Ack describes the durability of one acknowledged append.
type Ack int

const (
	// AckDurable: the record is on stable storage per the configured
	// group-commit policy (with SyncEvery=1, fsynced before the append
	// returned; with a larger batch, within the policy's bounded window).
	AckDurable Ack = iota
	// AckPending: the fsync-latency breaker is open. The record is in the
	// log file but its fsync is deferred to the background group commit; a
	// power loss before the next successful sync may lose it. Callers must
	// surface this weaker promise to their clients explicitly.
	AckPending
)

func (a Ack) String() string {
	if a == AckPending {
		return "pending"
	}
	return "durable"
}

// Recovery reports what Open found on disk. The records themselves went
// to the Replayer as they were decoded.
type Recovery struct {
	// HasSnapshot is set when a checkpoint exists, even an empty one.
	HasSnapshot bool
	// SnapshotRecords and TailRecords count the records replayed from the
	// checkpoint and from the log appended after it.
	SnapshotRecords int
	TailRecords     int
	// TruncatedBytes counts bytes of torn or corrupt log tail that were
	// discarded (and physically truncated from the file).
	TruncatedBytes int64
	// Raters is the rater dictionary the runs' ordinals indexed, with
	// every rater they named: the checkpoint's, then the log's.
	Raters *trust.Symbols
}

// A Run is a sequence of records of one product, as Open decoded them:
// a snapshot holds one run per product block (a version-1 snapshot one
// per product), and a log one run per product, holding that product's
// records in log order. A Run is valid only during the Replay call that
// receives it, but the strings of its records may be kept. Its methods
// take a pointer, so a loop over its records never copies it.
type Run struct {
	// Product is the ID every record of the run names.
	Product string
	// Snapshot is set for a run of the checkpoint.
	Snapshot bool
	// Raters is the rater dictionary of the Open: a record names its
	// rater by an ordinal in it. A later run's table may hold more names.
	Raters  *trust.Symbols
	Columns // the records, aliasing Open's buffers
	// received holds a u64 receipt time per record (nil for a snapshot
	// block: none).
	received []byte
	// frames numbers the records in their file (nil for a snapshot block,
	// whose records are numbered first, first+1, …).
	frames []int32
	first  int
}

// Frame returns the position of the run's i-th record among the records
// of its file (the log or the checkpoint), counting from 0.
func (r *Run) Frame(i int) int {
	if r.frames != nil {
		return int(r.frames[i])
	}
	return r.first + i
}

// Each calls f with each record of the run, in file order. Every
// record's Product is the run's, and its Rater the dictionary's name.
func (r *Run) Each(f func(Record)) {
	for i := 0; i < r.Len(); i++ {
		o, value, day := r.At(i)
		rec := Record{Product: r.Product, Rater: r.Raters.Name(o), Value: value, Day: day}
		if r.received != nil {
			rec.ReceivedUnixNano = int64(binary.LittleEndian.Uint64(r.received[8*i:]))
		}
		f(rec)
	}
}

// A Replayer receives what Open recovers while Open decodes it, so
// recovery never holds the records in a slice of its own.
type Replayer interface {
	// Expect is called once per product of the log, before the first
	// Replay, with the number of the log's checksum-valid frames that
	// name it: what the product's log run will hold. A caller sizes its
	// state from them and the runs once. The checkpoint is not counted.
	Expect(product string, frames int)
	// Replay is called once per run of checksum-valid records, in order:
	// the checkpoint's runs (product by product in series order), then
	// the log tail's, one per product in the order of its first frame.
	// The log is checked frame by frame up to its first bad frame before
	// any of it is replayed. A checkpoint found corrupt at block k has
	// already replayed what precedes it when Open fails, so a caller must
	// discard what it built on a failed Open.
	Replay(run Run)
}

// ReplayFunc adapts a function to a Replayer that expects nothing and
// takes one record at a time.
type ReplayFunc func(r Record, snapshot bool)

// Expect does nothing.
func (ReplayFunc) Expect(string, int) {}

// Replay calls f(r, run.Snapshot) for each record of the run.
func (f ReplayFunc) Replay(run Run) {
	run.Each(func(r Record) { f(r, run.Snapshot) })
}

// WAL is an open write-ahead log. It is safe for concurrent use.
type WAL struct {
	mu       sync.Mutex
	fs       FS
	log      File
	opts     Options
	size     int64
	pending  int   // appends since last successful sync
	appends  int64 // monotonic append counter (breaker bookkeeping)
	lastSync time.Time
	buf      []byte // scratch encode buffer
	failed   error  // sticky fsync/write failure
	closed   bool
	metrics  Metrics

	// Breaker state: degraded is set while the fsync-latency breaker is
	// open; probing marks the background probe goroutine as running so at
	// most one exists; closeCh wakes it on Close.
	degraded bool
	probing  bool
	closeCh  chan struct{}
}

// Open recovers the WAL state in fsys, handing every recovered record to
// rp (nil discards them; see Replayer), and opens the log for appending.
// Torn trailing records are truncated from the log file; a leftover
// temporary snapshot from a crashed Compact is removed.
func Open(fsys FS, opts Options, rp Replayer) (*WAL, *Recovery, error) {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.SyncEvery < 1 {
		opts.SyncEvery = 1
	}
	if rp == nil {
		rp = ReplayFunc(func(Record, bool) {})
	}
	if err := fsys.Remove(snapshotTmp); err != nil {
		return nil, nil, fmt.Errorf("wal: remove stale snapshot tmp: %w", err)
	}
	logImg, _, err := ReadFile(fsys, logName)
	if err != nil {
		return nil, nil, err
	}
	rec, dec := &Recovery{}, &runDecoder{rp: rp, dict: trust.NewSymbols(0)}
	logIdx := dec.index(logImg, math.MaxUint64)
	dec.interns = len(logIdx.order) > 0
	start := 0
	for k, end := range logIdx.ends {
		if end > start {
			rp.Expect(dec.names[k], end-start)
		}
		start = end
	}
	rec.HasSnapshot, err = readFile(fsys, snapshotName, func(f File, size int64) (err error) {
		rec.SnapshotRecords, err = decodeSnapshot(f, size, dec)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	goodBytes, err := readLog(fsys, logImg, logIdx, rec, dec)
	if err != nil {
		return nil, nil, err
	}
	rec.Raters = dec.dict
	f, err := fsys.OpenAppend(logName)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open log: %w", err)
	}
	if opts.StallThreshold > 0 && opts.ProbeInterval <= 0 {
		opts.ProbeInterval = defaultProbeInterval
	}
	w := &WAL{fs: fsys, log: f, opts: opts, size: goodBytes, lastSync: opts.Now(), closeCh: make(chan struct{})}
	return w, rec, nil
}

// readFile opens name and calls read with it and its size; ok is false
// when the file does not exist.
func readFile(fsys FS, name string, read func(f File, size int64) error) (ok bool, err error) {
	f, err := fsys.Open(name)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("wal: open %s: %w", name, err)
	}
	defer f.Close()
	size, err := fsys.Size(name)
	if err == nil {
		err = read(f, size)
	}
	if err != nil {
		return false, fmt.Errorf("wal: read %s: %w", name, err)
	}
	return true, nil
}

// readLog replays the checksum-valid records at the front of the log
// image data, as x indexes them, through d, counting them in rec, and
// truncates any torn tail from the file. It returns the byte length of
// the valid prefix.
func readLog(fsys FS, data []byte, x frameIndex, rec *Recovery, d *runDecoder) (int64, error) {
	d.replayIndex(data, x, false)
	off := x.offs[len(x.order)]
	rec.TailRecords = len(x.order)
	if torn := int64(len(data) - off); torn > 0 {
		if err := fsys.Truncate(logName, int64(off)); err != nil {
			return 0, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		rec.TruncatedBytes = torn
	}
	return int64(off), nil
}

// SetMetrics attaches observability handles to the WAL. It may be called
// any time after Open (the recording paths are lock-free, so there is no
// ordering hazard with in-flight appends); handles left nil stay no-ops.
func (w *WAL) SetMetrics(m Metrics) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.metrics = m
	if w.degraded {
		w.metrics.BreakerOpen.Set(1)
	}
}

// Append writes one record to the log and fsyncs per the group-commit
// policy, discarding the durability ack. See AppendAck.
func (w *WAL) Append(r Record) error {
	_, err := w.AppendAck(r)
	return err
}

// AppendAck writes one record to the log and fsyncs per the group-commit
// policy. When it returns nil the record is in the log: AckDurable means
// durably so per the policy, AckPending means the fsync-latency breaker is
// open and durability is deferred to the background group commit. When it
// returns an error nothing observable changed for the caller and, for
// write/sync failures, the WAL is poisoned — see Err.
func (w *WAL) AppendAck(r Record) (Ack, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return AckDurable, ErrClosed
	}
	if w.failed != nil {
		return AckDurable, w.failed
	}
	buf, err := appendRecord(w.buf[:0], r)
	if err != nil {
		return AckDurable, err // encoding error: caller bug, log not poisoned
	}
	w.buf = buf
	n, err := w.log.Write(buf)
	if err != nil {
		// A short or failed write leaves garbage at the tail; the CRC scan
		// on the next open truncates it. Nothing since the last sync is
		// trustworthy, so poison the log.
		w.failed = fmt.Errorf("wal: write (%d/%d bytes): %w", n, len(buf), err)
		return AckDurable, w.failed
	}
	w.size += int64(n)
	w.pending++
	w.appends++
	if w.degraded {
		// Breaker open: never block the serving path on a stalled disk.
		// The record is written; the probe goroutine group-commits it.
		return AckPending, nil
	}
	if w.pending >= w.opts.SyncEvery ||
		(w.opts.SyncInterval > 0 && w.opts.Now().Sub(w.lastSync) >= w.opts.SyncInterval) {
		if err := w.syncLocked(); err != nil {
			return AckDurable, err
		}
	}
	// A sync that just tripped the breaker still completed: this record is
	// durable; only later appends degrade to pending.
	return AckDurable, nil
}

// syncLocked fsyncs the log, times the fsync against the breaker threshold,
// and trips the breaker on a stall. The caller holds w.mu — concurrent
// appends wait out the fsync, which is why the breaker exists: after one
// observed stall, appends stop entering this path until a probe recovers.
func (w *WAL) syncLocked() error {
	start := w.opts.Now()
	batch := w.pending
	if err := w.log.Sync(); err != nil {
		w.failed = fmt.Errorf("wal: fsync: %w", err)
		return w.failed
	}
	w.pending = 0
	w.lastSync = w.opts.Now()
	w.metrics.FsyncSeconds.Observe(w.lastSync.Sub(start).Seconds())
	if batch > 0 {
		w.metrics.BatchSize.Observe(float64(batch))
	}
	if w.opts.StallThreshold > 0 {
		if w.lastSync.Sub(start) >= w.opts.StallThreshold {
			w.tripLocked()
		} else {
			w.degraded = false // a fast fsync heals the breaker
			w.metrics.BreakerOpen.Set(0)
		}
	}
	return nil
}

// tripLocked opens the fsync-latency breaker and ensures the probe
// goroutine is running.
func (w *WAL) tripLocked() {
	w.degraded = true
	w.metrics.BreakerOpen.Set(1)
	if !w.probing {
		w.probing = true
		go w.probe()
	}
}

// probe is the breaker's background group commit: every ProbeInterval it
// fsyncs the log outside w.mu (appends keep flowing while the disk stalls),
// marks everything written before the fsync as durable, and closes the
// breaker once a probe completes under the stall threshold.
func (w *WAL) probe() {
	for {
		select {
		case <-w.closeCh:
			return
		case <-time.After(w.opts.ProbeInterval):
		}
		w.mu.Lock()
		if w.closed || w.failed != nil || !w.degraded {
			w.probing = false
			w.mu.Unlock()
			return
		}
		f := w.log
		seqAtStart := w.appends
		w.mu.Unlock()

		start := w.opts.Now()
		err := f.Sync()
		dur := w.opts.Now().Sub(start)

		w.mu.Lock()
		if w.closed {
			w.probing = false
			w.mu.Unlock()
			return
		}
		if err != nil {
			w.failed = fmt.Errorf("wal: probe fsync: %w", err)
			w.probing = false
			w.mu.Unlock()
			return
		}
		// Everything appended before the fsync started is durable now;
		// records landed during the fsync stay pending for the next probe.
		if remaining := int(w.appends - seqAtStart); remaining < w.pending {
			if committed := w.pending - remaining; committed > 0 {
				w.metrics.BatchSize.Observe(float64(committed))
			}
			w.pending = remaining
		}
		w.lastSync = w.opts.Now()
		w.metrics.FsyncSeconds.Observe(dur.Seconds())
		if dur < w.opts.StallThreshold {
			w.degraded = false
			w.metrics.BreakerOpen.Set(0)
			w.probing = false
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
	}
}

// Degraded reports whether the fsync-latency breaker is open: appends are
// being acknowledged AckPending and group-committed in the background.
func (w *WAL) Degraded() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.degraded
}

// Sync forces an fsync of the log regardless of the batch policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.failed != nil {
		return w.failed
	}
	return w.syncLocked()
}

// Compact checkpoints the full dataset and resets the log, bounding
// recovery cost. raters is the dictionary d's raters are interned in, and
// ords[i][j] the ordinal of d.Products[i].Ratings[j]'s rater. The
// checkpoint is one binary snapshot image (see snapshot.go): the
// dictionary, then every product's ratings as one checksummed block of
// columns, behind a magic, version and count header. Write order matters
// for crash safety:
//
//  1. write the image to snapshot.tmp and fsync it
//  2. rename snapshot.tmp → snapshot.json (atomic; the directory is
//     fsynced so the rename is durable before step 3)
//  3. truncate the log to zero
//
// A crash before (2) leaves the old snapshot+log intact; a crash between
// (2) and (3) leaves a snapshot that already contains the log's records —
// recovery replays them as exact duplicates, which the service
// deduplicates idempotently.
func (w *WAL) Compact(d *dataset.Dataset, raters *trust.Symbols, ords [][]uint32) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.failed != nil {
		return w.failed
	}
	// Flush acknowledged records before checkpointing so the snapshot
	// never gets ahead of the durable log.
	if err := w.syncLocked(); err != nil {
		return err
	}
	img, err := encodeSnapshot(d, raters, ords)
	if err != nil {
		return fmt.Errorf("wal: encode snapshot: %w", err)
	}
	if err := WriteFileAtomic(w.fs, snapshotTmp, snapshotName, img, "snapshot"); err != nil {
		return err
	}
	if err := w.fs.Truncate(logName, 0); err != nil {
		// The snapshot is already live; a fat log only costs replay time
		// (duplicates are skipped), but the truncate failure is still an
		// FS fault worth surfacing.
		return fmt.Errorf("wal: reset log: %w", err)
	}
	w.size = 0
	w.pending = 0
	return nil
}

// Size returns the current log length in bytes (excluding the snapshot).
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Err returns the sticky write/fsync failure, if any. A non-nil result
// means the log can no longer accept appends and the process should be
// restarted; readiness probes surface this.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// Close flushes pending records and closes the log file. Appending to a
// closed WAL returns ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.closeCh != nil {
		close(w.closeCh) // wake the breaker probe so it exits promptly
	}
	var syncErr error
	if w.failed == nil && w.pending > 0 {
		if err := w.log.Sync(); err != nil {
			syncErr = fmt.Errorf("wal: fsync on close: %w", err)
		}
	}
	if err := w.log.Close(); err != nil && syncErr == nil {
		syncErr = fmt.Errorf("wal: close log: %w", err)
	}
	return syncErr
}
