package wal_test

import (
	"errors"
	"fmt"
	"maps"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/wal"
)

func rec(i int) wal.Record {
	return wal.Record{
		Product:          fmt.Sprintf("tv%d", i%3),
		Rater:            fmt.Sprintf("rater%03d", i),
		Value:            float64(i%11) / 2,
		Day:              float64(i) * 0.25,
		ReceivedUnixNano: int64(1_700_000_000_000_000_000 + i),
	}
}

// replayed is what an Open recovered: its report, every record it
// replayed, the checkpoint's first and each file's in file order (placed
// by Run.Frame), and the frame count Expect announced per product.
type replayed struct {
	*wal.Recovery
	Records  []wal.Record
	Expected map[string]int
	// files holds the checkpoint's and the log's records by frame number,
	// placed counts them, and logRuns the log runs per product. bad names
	// the first replay rule broken: a run that is empty or holds a record
	// of another product, frames out of order or numbered twice, a
	// snapshot run after a log run, a second log run of a product, or an
	// Expect call after a run or twice for a product.
	files   [2][]wal.Record
	placed  [2]int
	logRuns map[string]int
	bad     string
}

func (r *replayed) fail(format string, args ...any) {
	if r.bad == "" {
		r.bad = fmt.Sprintf(format, args...)
	}
}

func (r *replayed) Expect(product string, frames int) {
	if r.Expected == nil {
		r.Expected = map[string]int{}
	}
	if r.placed != [2]int{} || r.Expected[product] != 0 {
		r.fail("Expect(%q) after a run or twice", product)
	}
	r.Expected[product] = frames
}

func (r *replayed) Replay(run wal.Run) {
	file := 0
	if !run.Snapshot {
		file = 1
		if r.logRuns == nil {
			r.logRuns = map[string]int{}
		}
		if r.logRuns[run.Product]++; r.logRuns[run.Product] > 1 {
			r.fail("a second log run of %q", run.Product)
		}
	} else if r.placed[1] > 0 {
		r.fail("a snapshot run of %q after a log run", run.Product)
	}
	if run.Len() == 0 {
		r.fail("an empty run of %q", run.Product)
	}
	i := 0
	run.Each(func(rec wal.Record) {
		f, recs := run.Frame(i), &r.files[file]
		if rec.Product != run.Product || i > 0 && f <= run.Frame(i-1) || f < len(*recs) && (*recs)[f] != (wal.Record{}) {
			r.fail("run of %q: record %d (%+v) numbered frame %d", run.Product, i, rec, f)
		}
		*recs = append(*recs, make([]wal.Record, max(0, f+1-len(*recs)))...)
		(*recs)[f] = rec
		r.placed[file]++
		i++
	})
}

// Tail returns the records replayed from the log, after the checkpoint's.
func (r *replayed) Tail() []wal.Record { return r.Records[r.SnapshotRecords:] }

// openReplay opens fsys, collecting what Open replays. On success it
// checks the replay rules, that the report counts what was replayed and
// that Expect announced each product's log records.
func openReplay(t *testing.T, fsys wal.FS, opts wal.Options) (*wal.WAL, *replayed, error) {
	t.Helper()
	r := &replayed{}
	w, rc, err := wal.Open(fsys, opts, r)
	if err != nil {
		return w, r, err
	}
	r.Recovery = rc
	r.Records = append(r.files[0], r.files[1]...)
	if r.bad != "" || r.placed[0] != len(r.files[0]) || r.placed[1] != len(r.files[1]) ||
		r.placed[0] != rc.SnapshotRecords || r.placed[1] != rc.TailRecords {
		t.Fatalf("Open replayed %v records into %d + %d frame slots (%s); its report counts %d + %d",
			r.placed, len(r.files[0]), len(r.files[1]), r.bad, rc.SnapshotRecords, rc.TailRecords)
	}
	left := maps.Clone(r.Expected)
	for _, rec := range r.files[1] {
		left[rec.Product]--
	}
	for p, n := range left {
		if n != 0 {
			t.Fatalf("Expect announced %d frames of %q more than the log replayed", n, p)
		}
	}
	return w, r, nil
}

func appendN(t *testing.T, w *wal.WAL, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := w.Append(rec(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// TestRoundtripOSDir exercises the production FS on a real directory:
// records appended across two sessions all come back, in order.
func TestRoundtripOSDir(t *testing.T) {
	fsys, err := wal.OSDir(t.TempDir() + "/wal")
	if err != nil {
		t.Fatal(err)
	}
	w, rc, err := openReplay(t, fsys, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rc.HasSnapshot || len(rc.Records) != 0 || rc.TruncatedBytes != 0 {
		t.Fatalf("fresh dir recovery = %+v", rc)
	}
	appendN(t, w, 0, 10)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Second session: replay, then extend.
	w, rc, err = openReplay(t, fsys, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Records) != 10 {
		t.Fatalf("recovered %d records, want 10", len(rc.Records))
	}
	for i, r := range rc.Records {
		if r != rec(i) {
			t.Fatalf("record %d = %+v, want %+v", i, r, rec(i))
		}
	}
	appendN(t, w, 10, 5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, rc, err = openReplay(t, fsys, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Records) != 15 {
		t.Fatalf("recovered %d records after extend, want 15", len(rc.Records))
	}
}

// TestTornTailTruncated proves the torn-write rule: garbage after the last
// complete record is detected, reported, and physically cut off, and the
// log stays appendable afterwards.
func TestTornTailTruncated(t *testing.T) {
	fs := faultfs.New()
	w, _, err := wal.Open(fs, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 4)
	w.Close()
	good, err := fs.ReadFile("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	fs.WriteFile("wal.log", append(append([]byte(nil), good...), 0x7, 0x13, 0x42))

	w, rc, err := openReplay(t, fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Records) != 4 || rc.TruncatedBytes != 3 {
		t.Fatalf("recovery = %d records, %d torn bytes; want 4, 3", len(rc.Records), rc.TruncatedBytes)
	}
	if size, _ := fs.Size("wal.log"); size != int64(len(good)) {
		t.Errorf("log size after truncation = %d, want %d", size, len(good))
	}
	appendN(t, w, 4, 1)
	w.Close()
	_, rc, err = openReplay(t, fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Records) != 5 {
		t.Fatalf("post-truncation append lost: %d records, want 5", len(rc.Records))
	}
}

// TestCorruptRecordStopsReplay flips one payload byte mid-log: the CRC
// catches it and replay keeps only the prefix before the corruption.
func TestCorruptRecordStopsReplay(t *testing.T) {
	fs := faultfs.New()
	w, _, err := wal.Open(fs, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 6)
	w.Close()
	data, _ := fs.ReadFile("wal.log")
	perRecord := len(data) / 6
	data[2*perRecord+perRecord/2] ^= 0xFF // inside record 2's payload
	fs.WriteFile("wal.log", data)

	_, rc, err := openReplay(t, fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Records) != 2 {
		t.Fatalf("recovered %d records, want the 2 before the corruption", len(rc.Records))
	}
	if rc.TruncatedBytes != int64(len(data)-2*perRecord) {
		t.Errorf("truncated %d bytes, want %d", rc.TruncatedBytes, len(data)-2*perRecord)
	}
	for i, r := range rc.Records {
		if r != rec(i) {
			t.Errorf("surviving record %d = %+v, want %+v", i, r, rec(i))
		}
	}
}

// TestGroupCommitAmortizesFsync counts real sync calls: SyncEvery=4 over
// 10 appends must fsync at records 4 and 8, plus once on Close for the
// pending tail.
func TestGroupCommitAmortizesFsync(t *testing.T) {
	fs := faultfs.New()
	w, _, err := wal.Open(fs, wal.Options{SyncEvery: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 10)
	if got := fs.SyncCount(); got != 2 {
		t.Errorf("syncs after 10 appends = %d, want 2", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fs.SyncCount(); got != 3 {
		t.Errorf("syncs after close = %d, want 3 (close flushes the tail)", got)
	}
	_, rc, err := openReplay(t, fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Records) != 10 {
		t.Fatalf("recovered %d records, want 10", len(rc.Records))
	}
}

// TestSyncIntervalBoundsBatchAge drives the WAL with a fake clock: a slow
// trickle of appends still fsyncs once SyncInterval has elapsed, so a
// half-filled batch cannot stay volatile forever.
func TestSyncIntervalBoundsBatchAge(t *testing.T) {
	fs := faultfs.New()
	now := time.Unix(0, 0)
	w, _, err := wal.Open(fs, wal.Options{
		SyncEvery:    1000,
		SyncInterval: time.Second,
		Now:          func() time.Time { return now },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		now = now.Add(400 * time.Millisecond)
		if err := w.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Syncs fire on the appends at t=1.2s and t=2.4s (≥1s since previous).
	if got := fs.SyncCount(); got != 2 {
		t.Errorf("interval-driven syncs = %d, want 2", got)
	}
}

// TestFsyncFailurePoisons: after one failed fsync nothing acknowledged
// since the last good sync can be trusted, so the WAL must refuse all
// further appends with the same error.
func TestFsyncFailurePoisons(t *testing.T) {
	fs := faultfs.New()
	w, _, err := wal.Open(fs, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 3)
	fs.FailSyncsAfter(0)
	errAppend := w.Append(rec(3))
	if !errors.Is(errAppend, faultfs.ErrInjected) {
		t.Fatalf("append with failing fsync = %v, want injected error", errAppend)
	}
	if err := w.Append(rec(4)); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("append after poison = %v, want sticky injected error", err)
	}
	if err := w.Err(); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("Err() = %v, want sticky injected error", err)
	}
	// The crash image still recovers the three synced records (record 3's
	// bytes may survive too — it reached the OS — but no later ones).
	_, rc, err := openReplay(t, fs.Clone(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rc.Records); n != 3 && n != 4 {
		t.Errorf("crash image recovered %d records, want 3 or 4", n)
	}
}

// TestShortWriteTruncatedOnReopen kills the writer mid-record via a write
// budget: the half record is garbage to the CRC scan and is cut away.
func TestShortWriteTruncatedOnReopen(t *testing.T) {
	fs := faultfs.New()
	w, _, err := wal.Open(fs, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 2)
	full, _ := fs.ReadFile("wal.log")
	fs.LimitWrites(int64(len(full)/4) + 1) // dies partway through record 2
	if err := w.Append(rec(2)); err == nil {
		t.Fatal("short write not surfaced")
	}
	if err := w.Append(rec(3)); err == nil {
		t.Fatal("append after short write accepted; log is poisoned")
	}
	_, rc, err := openReplay(t, fs.Clone(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Records) != 2 || rc.TruncatedBytes == 0 {
		t.Fatalf("recovery = %d records, %d torn bytes; want 2 records and a truncated tail",
			len(rc.Records), rc.TruncatedBytes)
	}
}

func snapshotDataset() *dataset.Dataset {
	return &dataset.Dataset{
		HorizonDays: 90,
		Products: []dataset.Product{
			{ID: "tv0", Ratings: dataset.Series{{Day: 1, Value: 4, Rater: "a"}, {Day: 2, Value: 3.5, Rater: "b"}}},
			{ID: "tv1", Ratings: dataset.Series{{Day: 0.5, Value: 5, Rater: "c"}}},
		},
	}
}

// TestCompactCheckpointsAndResetsLog: after Compact, recovery is snapshot
// + tail only, and the log no longer holds pre-snapshot records.
func TestCompactCheckpointsAndResetsLog(t *testing.T) {
	fs := faultfs.New()
	w, _, err := wal.Open(fs, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 8)
	if err := w.Compact(wal.Interned(snapshotDataset())); err != nil {
		t.Fatal(err)
	}
	if size, _ := fs.Size("wal.log"); size != 0 {
		t.Errorf("log size after compact = %d, want 0", size)
	}
	appendN(t, w, 8, 2)
	w.Close()

	_, rc, err := openReplay(t, fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rc.HasSnapshot {
		t.Fatal("no snapshot recovered")
	}
	requireRecords(t, "snapshot", rc.Records[:rc.SnapshotRecords], snapshotRecords(snapshotDataset()))
	if tail := rc.Tail(); len(tail) != 2 || tail[0] != rec(8) || tail[1] != rec(9) {
		t.Errorf("log tail = %+v, want records 8 and 9", tail)
	}
}

// TestOpenRemovesStaleSnapshotTmp: a crash during Compact may leave
// snapshot.tmp behind; open must discard it (it was never published).
func TestOpenRemovesStaleSnapshotTmp(t *testing.T) {
	fs := faultfs.New()
	fs.WriteFile("snapshot.tmp", []byte("{half a snapsh"))
	w, rc, err := openReplay(t, fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if rc.HasSnapshot {
		t.Error("unpublished snapshot.tmp treated as a snapshot")
	}
	if _, err := fs.ReadFile("snapshot.tmp"); err == nil {
		t.Error("stale snapshot.tmp not removed")
	}
}

// TestAppendRejectsOversizeIDs: an encoding error is the caller's bug and
// must not poison the log.
func TestAppendRejectsOversizeIDs(t *testing.T) {
	fs := faultfs.New()
	w, _, err := wal.Open(fs, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, 1<<17)
	if err := w.Append(wal.Record{Product: string(huge), Rater: "r"}); err == nil {
		t.Fatal("oversize product accepted")
	}
	if err := w.Append(rec(0)); err != nil {
		t.Fatalf("append after encoding error = %v, want success (not poisoned)", err)
	}
}

// TestClosedWAL: operations after Close fail with ErrClosed.
func TestClosedWAL(t *testing.T) {
	fs := faultfs.New()
	w, _, err := wal.Open(fs, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(0)); !errors.Is(err, wal.ErrClosed) {
		t.Errorf("Append after close = %v, want ErrClosed", err)
	}
	if err := w.Compact(wal.Interned(snapshotDataset())); !errors.Is(err, wal.ErrClosed) {
		t.Errorf("Compact after close = %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// waitFor polls cond every millisecond until it holds or the deadline
// passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// TestBreakerTripsOnStallAndRecovers drives the fsync-latency circuit
// breaker end to end: a stalled disk trips it (acks flip to pending, the
// serving path stops blocking), the background probe group-commits pending
// records, and a recovered disk closes it (acks flip back to durable).
// Nothing is ever lost: every record acked — durable or pending — is in the
// log after an orderly Close.
func TestBreakerTripsOnStallAndRecovers(t *testing.T) {
	fs := faultfs.New()
	w, _, err := wal.Open(fs, wal.Options{
		SyncEvery:      1,
		StallThreshold: 2 * time.Millisecond,
		ProbeInterval:  5 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := w.AppendAck(rec(0))
	if err != nil || ack != wal.AckDurable {
		t.Fatalf("healthy append = %v, %v; want durable", ack, err)
	}
	if w.Degraded() {
		t.Fatal("breaker open on a healthy disk")
	}

	// Stall the disk. The tripping append eats one stall but still acks
	// durable (its fsync completed); the next one must be pending and fast.
	fs.StallSyncs(10 * time.Millisecond)
	ack, err = w.AppendAck(rec(1))
	if err != nil || ack != wal.AckDurable {
		t.Fatalf("tripping append = %v, %v; want durable (its fsync succeeded)", ack, err)
	}
	if !w.Degraded() {
		t.Fatal("breaker did not trip on a stalled fsync")
	}
	start := time.Now()
	ack, err = w.AppendAck(rec(2))
	if err != nil || ack != wal.AckPending {
		t.Fatalf("degraded append = %v, %v; want pending", ack, err)
	}
	if d := time.Since(start); d >= 10*time.Millisecond {
		t.Errorf("degraded append blocked %v behind the stalled disk", d)
	}

	// Heal the disk: a probe closes the breaker without any new append.
	fs.ClearFaults()
	waitFor(t, 2*time.Second, "breaker to close", func() bool { return !w.Degraded() })
	ack, err = w.AppendAck(rec(3))
	if err != nil || ack != wal.AckDurable {
		t.Fatalf("healed append = %v, %v; want durable", ack, err)
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, rc, err := openReplay(t, fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Records) != 4 {
		t.Fatalf("recovered %d records, want all 4 acked ones", len(rc.Records))
	}
	for i, r := range rc.Records {
		if r != rec(i) {
			t.Errorf("record %d = %+v", i, r)
		}
	}
}

// TestBreakerProbeGroupCommits: records acked pending while the breaker is
// open become durable via the background probe even though the disk stays
// slow — visible in the crash image (power-loss model) without any Close.
func TestBreakerProbeGroupCommits(t *testing.T) {
	fs := faultfs.New()
	w, _, err := wal.Open(fs, wal.Options{
		SyncEvery:      1,
		StallThreshold: time.Millisecond,
		ProbeInterval:  5 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fs.StallSyncs(3 * time.Millisecond) // slow enough to keep the breaker open
	if _, err := w.AppendAck(rec(0)); err != nil {
		t.Fatal(err)
	}
	if !w.Degraded() {
		t.Fatal("breaker did not trip")
	}
	for i := 1; i < 5; i++ {
		ack, err := w.AppendAck(rec(i))
		if err != nil || ack != wal.AckPending {
			t.Fatalf("append %d = %v, %v; want pending", i, ack, err)
		}
	}
	// The probe group-commits in the background: eventually the crash image
	// (synced bytes only) replays all five records.
	waitFor(t, 2*time.Second, "probe to group-commit pending records", func() bool {
		_, rc, err := openReplay(t, fs.CrashImage(), wal.Options{})
		return err == nil && len(rc.Records) == 5
	})
}

// TestBreakerProbeFailurePoisons: an fsync error during a background probe
// must poison the log exactly like a foreground fsync failure — the
// operator sees it on the next append and via Err.
func TestBreakerProbeFailurePoisons(t *testing.T) {
	fs := faultfs.New()
	w, _, err := wal.Open(fs, wal.Options{
		SyncEvery:      1,
		StallThreshold: time.Millisecond,
		ProbeInterval:  5 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fs.StallSyncs(3 * time.Millisecond)
	if _, err := w.AppendAck(rec(0)); err != nil {
		t.Fatal(err)
	}
	if !w.Degraded() {
		t.Fatal("breaker did not trip")
	}
	fs.FailSyncsAfter(0)
	waitFor(t, 2*time.Second, "probe failure to poison the log", func() bool { return w.Err() != nil })
	if err := w.Append(rec(1)); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("append after probe failure = %v, want the injected fsync error", err)
	}
}
