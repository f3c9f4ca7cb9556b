package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/agg"
	"repro/internal/faultfs"
	"repro/internal/wal"
)

// workloadRating returns the i-th rating of the deterministic recovery
// workload: three products, unique raters, valid values and days.
func workloadRating(i int) (product, rater string, value, day float64) {
	product = fmt.Sprintf("tv%d", i%3)
	rater = fmt.Sprintf("r%04d", i)
	value = float64((i*7)%11) / 2               // 0, 3.5, 1.5 … ∈ [0,5]
	day = math.Mod(float64(i)*1.37+0.11, 89.75) // ∈ [0, 90)
	return
}

var workloadProducts = []string{"tv0", "tv1", "tv2"}

// logPath is the log of the one shard a default service writes.
var logPath = wal.ShardDir(0) + "/wal.log"

// runWorkload opens a durable service over a fresh fault FS, submits n
// workload ratings, and returns the FS, the final log image, and the log
// size after each accepted rating (the record boundaries).
func runWorkload(t *testing.T, scheme agg.Scheme, n int) (fs *faultfs.FS, logBytes []byte, boundaries []int64) {
	t.Helper()
	fs = faultfs.New()
	svc, _, err := OpenWAL(scheme, 90, workloadProducts, WALOptions{FS: fs, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p, r, v, d := workloadRating(i)
		if err := svc.Submit(context.Background(), p, r, v, d); err != nil {
			t.Fatalf("workload submit %d: %v", i, err)
		}
		size, err := fs.Size(logPath)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, size)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	logBytes, err = fs.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	return fs, logBytes, boundaries
}

// recordsContained counts workload records fully inside the first n log
// bytes.
func recordsContained(boundaries []int64, n int64) int {
	k := 0
	for _, b := range boundaries {
		if b <= n {
			k++
		}
	}
	return k
}

// recoverAt builds the crash image holding the first n log bytes and
// opens a recovered service over it.
func recoverAt(t *testing.T, scheme agg.Scheme, logBytes []byte, n int64) (*Service, *RecoveryReport) {
	t.Helper()
	img := faultfs.New()
	img.WriteFile(logPath, logBytes[:n])
	svc, rep, err := OpenWAL(scheme, 90, workloadProducts, WALOptions{FS: img, SyncEvery: 1})
	if err != nil {
		t.Fatalf("recover at byte %d: %v", n, err)
	}
	return svc, rep
}

// TestCrashRecoveryEveryByte is the exhaustive kill-anywhere property
// test at small scale: a 60-rating workload, a simulated crash after
// every single byte of the log. Each recovery must yield exactly the
// accepted prefix that fit in the surviving bytes — no torn records
// applied, no phantom ratings, no records lost before the crash point.
func TestCrashRecoveryEveryByte(t *testing.T) {
	const n = 60
	_, logBytes, boundaries := runWorkload(t, agg.SAScheme{}, n)

	// Reference services fed the accepted prefix directly, grown in step
	// with the crash point so each prefix dataset is built exactly once.
	ref, err := New(agg.SAScheme{}, 90, workloadProducts)
	if err != nil {
		t.Fatal(err)
	}
	refK := 0
	for cut := int64(0); cut <= int64(len(logBytes)); cut++ {
		svc, rep := recoverAt(t, agg.SAScheme{}, logBytes, cut)
		wantK := recordsContained(boundaries, cut)
		if rep.ReplayedRatings != wantK {
			t.Fatalf("crash at byte %d: recovered %d ratings, want %d", cut, rep.ReplayedRatings, wantK)
		}
		if rep.SkippedRecords != 0 || rep.DuplicateRecords != 0 {
			t.Fatalf("crash at byte %d: unexpected skips %d / duplicates %d", cut, rep.SkippedRecords, rep.DuplicateRecords)
		}
		for refK < wantK {
			p, r, v, d := workloadRating(refK)
			if err := ref.Submit(context.Background(), p, r, v, d); err != nil {
				t.Fatal(err)
			}
			refK++
		}
		if !reflect.DeepEqual(svc.dataView(), ref.dataView()) {
			t.Fatalf("crash at byte %d: recovered dataset diverges from accepted prefix of %d", cut, wantK)
		}
		svc.Close()
	}
}

// TestCrashRecoveryPropertyP is the full-scale acceptance property: a
// 500-rating workload under the P-scheme, crashes injected at every
// record boundary and at torn offsets inside the following record. Every
// recovery yields a clean prefix, and the recomputed P-scheme scores are
// exactly those of a crash-free run over the same prefix.
func TestCrashRecoveryPropertyP(t *testing.T) {
	const n = 500
	_, logBytes, boundaries := runWorkload(t, agg.NewPScheme(), n)

	// Crash points: byte 0, every record boundary, and two torn offsets
	// inside the record after each boundary.
	cuts := []int64{0}
	for i, b := range boundaries {
		next := int64(len(logBytes))
		if i+1 < len(boundaries) {
			next = boundaries[i+1]
		}
		for _, off := range []int64{b, b + 1, b + (next-b)/2} {
			if off <= int64(len(logBytes)) && off >= b && (off == b || off < next) {
				cuts = append(cuts, off)
			}
		}
	}

	ref, err := New(agg.NewPScheme(), 90, workloadProducts)
	if err != nil {
		t.Fatal(err)
	}
	refK := 0
	// P-scheme evaluation costs a few ms; run the exact-score comparison
	// at every scoreStride-th record boundary and at the final state, and
	// the cheap dataset-prefix comparison at every cut.
	const scoreStride = 10
	for _, cut := range cuts {
		svc, rep := recoverAt(t, agg.NewPScheme(), logBytes, cut)
		wantK := recordsContained(boundaries, cut)
		if rep.ReplayedRatings != wantK || rep.SkippedRecords != 0 || rep.DuplicateRecords != 0 {
			t.Fatalf("crash at byte %d: report %+v, want %d clean replays", cut, rep, wantK)
		}
		for refK < wantK {
			p, r, v, d := workloadRating(refK)
			if err := ref.Submit(context.Background(), p, r, v, d); err != nil {
				t.Fatal(err)
			}
			refK++
		}
		if !reflect.DeepEqual(svc.dataView(), ref.dataView()) {
			t.Fatalf("crash at byte %d: recovered dataset diverges from accepted prefix of %d", cut, wantK)
		}
		atBoundary := cut == 0 || (wantK > 0 && boundaries[wantK-1] == cut)
		if atBoundary && (wantK%scoreStride == 0 || wantK == n) {
			compareScores(t, svc, ref, cut)
		}
		svc.Close()
	}
	if refK != n {
		t.Fatalf("workload only reached %d/%d ratings", refK, n)
	}
}

// compareScores asserts bit-exact P-scheme score equality between the
// recovered service and the crash-free reference.
func compareScores(t *testing.T, got, want *Service, cut int64) {
	t.Helper()
	for _, id := range workloadProducts {
		gs, err := got.Scores(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := want.Scores(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if len(gs) != len(ws) {
			t.Fatalf("crash at byte %d: %s has %d periods, want %d", cut, id, len(gs), len(ws))
		}
		for i := range gs {
			if math.Float64bits(gs[i]) != math.Float64bits(ws[i]) {
				t.Fatalf("crash at byte %d: %s period %d score %v, want %v (bit-exact)", cut, id, i, gs[i], ws[i])
			}
		}
	}
}

// TestFsyncFailureDoesNotCorruptState: when the log cannot make a rating
// durable, the client gets an error, in-memory state is untouched, reads
// keep working, and the service reports itself unready.
func TestFsyncFailureDoesNotCorruptState(t *testing.T) {
	fs := faultfs.New()
	svc, _, err := OpenWAL(agg.SAScheme{}, 90, workloadProducts, WALOptions{FS: fs, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p, r, v, d := workloadRating(i)
		if err := svc.Submit(context.Background(), p, r, v, d); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := svc.Scores(context.Background(), "tv0")

	fs.FailSyncsAfter(0)
	if err := svc.Submit(context.Background(), "tv0", "victim", 4, 10); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("submit with failing fsync = %v, want ErrUnavailable", err)
	}
	if n, _ := svc.RatingCount("tv0"); n != 1 {
		t.Errorf("failed submit mutated state: tv0 has %d ratings, want 1", n)
	}
	// The failed rating's rater is not burned: the duplicate-rater map
	// must not remember a rating that was never accepted.
	fs.ClearFaults()
	// The WAL failure is sticky even after the FS heals — acknowledged-
	// but-unsynced bytes cannot be trusted, so only a restart recovers.
	if err := svc.Submit(context.Background(), "tv0", "victim", 4, 10); !errors.Is(err, ErrUnavailable) {
		t.Errorf("submit after heal = %v, want sticky ErrUnavailable", err)
	}
	if err := svc.Ready(); err == nil {
		t.Error("Ready() = nil on a service with a poisoned WAL")
	}
	after, err := svc.Scores(context.Background(), "tv0")
	if err != nil {
		t.Fatalf("reads must keep working while degraded: %v", err)
	}
	if len(before) != len(after) {
		t.Fatalf("score table reshaped across failed submit: %v → %v", before, after)
	}
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Errorf("scores changed across failed submit: %v → %v", before, after)
		}
	}
	svc.Close()

	// A restart over the surviving bytes recovers cleanly. The rejected
	// record's bytes reached the OS before the fsync failed, so recovery
	// may legitimately resurrect it — an error response promises the
	// rating was not silently lost, not that it cannot survive a crash.
	svc2, rep := recoverAt(t, agg.SAScheme{}, mustRead(t, fs, logPath), mustSize(t, fs, logPath))
	defer svc2.Close()
	if rep.SkippedRecords != 0 {
		t.Errorf("restart skipped %d records", rep.SkippedRecords)
	}
	if got := rep.ReplayedRatings; got != 3 && got != 4 {
		t.Errorf("restart recovered %d ratings, want 3 (victim lost) or 4 (victim survived)", got)
	}
	if err := svc2.Ready(); err != nil {
		t.Errorf("restarted service not ready: %v", err)
	}
}

func mustRead(t *testing.T, fs *faultfs.FS, name string) []byte {
	t.Helper()
	data, err := fs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustSize(t *testing.T, fs *faultfs.FS, name string) int64 {
	t.Helper()
	size, err := fs.Size(name)
	if err != nil {
		t.Fatal(err)
	}
	return size
}

// TestSnapshotCompactBoundsLog: with SnapshotEvery=10, 35 ratings leave a
// 5-record log tail behind a 30-rating snapshot, and recovery stitches
// both halves back together.
func TestSnapshotCompactBoundsLog(t *testing.T) {
	fs := faultfs.New()
	svc, _, err := OpenWAL(agg.SAScheme{}, 90, workloadProducts, WALOptions{FS: fs, SyncEvery: 1, SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	fullRecord := int64(0)
	for i := 0; i < 35; i++ {
		p, r, v, d := workloadRating(i)
		if err := svc.Submit(context.Background(), p, r, v, d); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			fullRecord = mustSize(t, fs, logPath)
		}
	}
	svc.Close()
	if size := mustSize(t, fs, logPath); size > 6*fullRecord {
		t.Errorf("log after compaction = %d bytes; want ≈ 5 records (~%d bytes)", size, 5*fullRecord)
	}

	svc2, rep, err := OpenWAL(agg.SAScheme{}, 90, workloadProducts, WALOptions{FS: fs, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if rep.SnapshotRatings != 30 || rep.ReplayedRatings != 5 {
		t.Errorf("recovery = %d snapshot + %d replayed, want 30 + 5", rep.SnapshotRatings, rep.ReplayedRatings)
	}
	ref, _ := New(agg.SAScheme{}, 90, workloadProducts)
	for i := 0; i < 35; i++ {
		p, r, v, d := workloadRating(i)
		ref.Submit(context.Background(), p, r, v, d)
	}
	for _, id := range workloadProducts {
		got, _ := svc2.Scores(context.Background(), id)
		want, _ := ref.Scores(context.Background(), id)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s period %d: recovered score %v, want %v", id, i, got[i], want[i])
			}
		}
	}
}

// TestCrashBetweenSnapshotAndLogReset covers the one crash window where
// the snapshot and the log overlap: the snapshot is published but the log
// was not yet reset. Replay must deduplicate the log's records against
// the snapshot silently.
func TestCrashBetweenSnapshotAndLogReset(t *testing.T) {
	fs := faultfs.New()
	svc, _, err := OpenWAL(agg.SAScheme{}, 90, workloadProducts, WALOptions{FS: fs, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p, r, v, d := workloadRating(i)
		if err := svc.Submit(context.Background(), p, r, v, d); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()
	logBytes := mustRead(t, fs, logPath)

	// Publish a snapshot of the full dataset, then put the un-reset log
	// back — exactly the on-disk state of a crash between Compact's
	// rename and truncate steps.
	img := fs.Clone()
	shard, err := wal.Sub(img, wal.ShardDir(0))
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := wal.Open(shard, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(svc.dataView()); err != nil {
		t.Fatal(err)
	}
	w.Close()
	img.WriteFile(logPath, logBytes)

	svc2, rep, err := OpenWAL(agg.SAScheme{}, 90, workloadProducts, WALOptions{FS: img, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if rep.SnapshotRatings != 10 || rep.DuplicateRecords != 10 || rep.SkippedRecords != 0 {
		t.Fatalf("overlap recovery = %+v, want 10 snapshot ratings and 10 silent duplicates", rep)
	}
	for _, id := range workloadProducts {
		n1, _ := svc.RatingCount(id)
		n2, _ := svc2.RatingCount(id)
		if n1 != n2 {
			t.Errorf("%s: %d ratings after overlap recovery, want %d", id, n2, n1)
		}
	}
}

// TestRecoveryReportsInvalidRecords: records that violate live validation
// (here: a day beyond a shrunken horizon, and a rating for a product no
// longer registered) are skipped, counted and sampled — never applied.
func TestRecoveryReportsInvalidRecords(t *testing.T) {
	fs := faultfs.New()
	svc, _, err := OpenWAL(agg.SAScheme{}, 90, workloadProducts, WALOptions{FS: fs, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(context.Background(), "tv0", "ok", 4, 10); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(context.Background(), "tv1", "gone", 3, 20); err != nil { // product dropped below
		t.Fatal(err)
	}
	if err := svc.Submit(context.Background(), "tv0", "late", 5, 80); err != nil { // beyond the new horizon
		t.Fatal(err)
	}
	svc.Close()

	svc2, rep, err := OpenWAL(agg.SAScheme{}, 60, []string{"tv0"}, WALOptions{FS: fs, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if rep.ReplayedRatings != 1 || rep.SkippedRecords != 2 {
		t.Fatalf("recovery = %+v, want 1 replayed + 2 skipped", rep)
	}
	if len(rep.SkipReasons) != 2 {
		t.Errorf("SkipReasons = %v, want 2 samples", rep.SkipReasons)
	}
	if n, _ := svc2.RatingCount("tv0"); n != 1 {
		t.Errorf("tv0 = %d ratings, want 1", n)
	}
}
