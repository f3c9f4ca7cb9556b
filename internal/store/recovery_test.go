package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/wal"
)

// recoveryImage is a two-shard WAL directory of six products: ten ratings
// checkpointed into the snapshots, then six more in the logs, as a kill
// leaves it (copied before Close, which would compact the logs); closed
// is the same directory after Close. preCompact holds each shard's log
// as it was just before the checkpoint reset it.
func recoveryImage(t *testing.T) (fs, closed *faultfs.FS, products []string, preCompact [2][]byte) {
	t.Helper()
	products = testProducts(6)
	fs = faultfs.New()
	st, _, err := Open(90, products, Options{FS: fs, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(from, n int) {
		for i := from; i < from+n; i++ {
			if _, err := st.Submit(context.Background(), products[i%len(products)], fmt.Sprintf("rater-%02d", i), float64(i%9)/2+0.5, float64(3*i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(0, 10)
	for i := range preCompact {
		if preCompact[i], err = fs.ReadFile(wal.ShardDir(i) + "/wal.log"); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	submit(10, 6)
	killed := fs.Clone()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return killed, fs, products, preCompact
}

// appendLog appends recs to shard's log.
func appendLog(t *testing.T, fs wal.FS, shard int, recs ...wal.Record) {
	t.Helper()
	sub, err := wal.Sub(fs, wal.ShardDir(shard))
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := wal.Open(sub, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryReportCases pins the RecoveryReport of a reopen, every count
// and skip reason, on the on-disk states recovery must tell apart: a torn
// log tail, the duplicates a crash between a snapshot's publication and
// its log reset leaves, a record in the wrong shard's log and a
// conflicting duplicate, alone and all at once across both shards, where
// the skip reasons are sampled in shard order; and a clean Close, which
// leaves snapshots only. The expected values of the killed cases were
// recorded from a recovery that decoded every record into a slice before
// applying any, so streaming the records into the store, and then in
// runs, provably kept every count.
func TestRecoveryReportCases(t *testing.T) {
	logName := func(shard int) string { return wal.ShardDir(shard) + "/wal.log" }
	const (
		misrouted = `product-0/mallory value=1 day=5: store: product "product-0" routes to shard 1 but its record was found in shard 0's log`
		conflict  = `product-1/rater-01 value=5 day=3: store: duplicate rating: rater "rater-01" on "product-1"`
	)
	cases := []struct {
		name string
		edit func(t *testing.T, fs *faultfs.FS, products []string, preCompact [2][]byte)
		want RecoveryReport
	}{
		{"clean close", nil, RecoveryReport{SnapshotRatings: 16, ReplayedRatings: 0}},
		{"clean", func(*testing.T, *faultfs.FS, []string, [2][]byte) {},
			RecoveryReport{SnapshotRatings: 10, ReplayedRatings: 6}},
		{"torn tail", func(t *testing.T, fs *faultfs.FS, _ []string, _ [2][]byte) {
			log, _ := fs.ReadFile(logName(1))
			fs.WriteFile(logName(1), append(log, 0x2a, 0, 0, 0, 7, 7, 7))
		}, RecoveryReport{SnapshotRatings: 10, ReplayedRatings: 6, TruncatedBytes: 7}},
		{"crash mid-Compact", func(t *testing.T, fs *faultfs.FS, _ []string, preCompact [2][]byte) {
			log, _ := fs.ReadFile(logName(0))
			fs.WriteFile(logName(0), append(preCompact[0], log...))
		}, RecoveryReport{SnapshotRatings: 10, ReplayedRatings: 6, DuplicateRecords: 5}},
		{"misrouted record", func(t *testing.T, fs *faultfs.FS, products []string, _ [2][]byte) {
			appendLog(t, fs, 1-Route(products[0], 2), wal.Record{Product: products[0], Rater: "mallory", Value: 1, Day: 5})
		}, RecoveryReport{SnapshotRatings: 10, ReplayedRatings: 6, SkippedRecords: 1, SkipReasons: []string{misrouted}}},
		{"conflicting duplicate", func(t *testing.T, fs *faultfs.FS, products []string, _ [2][]byte) {
			appendLog(t, fs, Route(products[1], 2), wal.Record{Product: products[1], Rater: "rater-01", Value: 5, Day: 3})
		}, RecoveryReport{SnapshotRatings: 10, ReplayedRatings: 6, SkippedRecords: 1, SkipReasons: []string{conflict}}},
		{"all at once, both shards", func(t *testing.T, fs *faultfs.FS, products []string, preCompact [2][]byte) {
			for i := range preCompact {
				log, _ := fs.ReadFile(logName(i))
				fs.WriteFile(logName(i), append(preCompact[i], log...))
			}
			appendLog(t, fs, 1-Route(products[0], 2), wal.Record{Product: products[0], Rater: "mallory", Value: 1, Day: 5})
			appendLog(t, fs, Route(products[1], 2), wal.Record{Product: products[1], Rater: "rater-01", Value: 5, Day: 3})
			appendLog(t, fs, 0, wal.Record{Product: "unregistered", Rater: "x", Value: 3, Day: 1})
			log, _ := fs.ReadFile(logName(0))
			fs.WriteFile(logName(0), append(log, 1, 2, 3))
		}, RecoveryReport{SnapshotRatings: 10, ReplayedRatings: 6, DuplicateRecords: 10, SkippedRecords: 3, TruncatedBytes: 3,
			SkipReasons: []string{misrouted, conflict, `unregistered/x value=3 day=1: store: unknown product: "unregistered"`}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, closed, products, preCompact := recoveryImage(t)
			if tc.edit == nil {
				fs = closed
			} else {
				tc.edit(t, fs, products, preCompact)
			}
			st, rep, err := Open(90, products, Options{FS: fs, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if !reflect.DeepEqual(*rep, tc.want) {
				t.Fatalf("report %+v, want %+v", *rep, tc.want)
			}
		})
	}
}

// handleFS counts the file handles open on the FS it wraps.
type handleFS struct {
	wal.FS
	mu   sync.Mutex
	open int
}

type countedFile struct {
	wal.File
	fs   *handleFS
	once sync.Once
}

func (f *countedFile) Close() error {
	f.once.Do(func() {
		f.fs.mu.Lock()
		f.fs.open--
		f.fs.mu.Unlock()
	})
	return f.File.Close()
}

func (h *handleFS) count(f wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.open++
	h.mu.Unlock()
	return &countedFile{File: f, fs: h}, nil
}

func (h *handleFS) Create(name string) (wal.File, error)     { return h.count(h.FS.Create(name)) }
func (h *handleFS) Open(name string) (wal.File, error)       { return h.count(h.FS.Open(name)) }
func (h *handleFS) OpenAppend(name string) (wal.File, error) { return h.count(h.FS.OpenAppend(name)) }

// A snapshot corrupt at block k has already replayed blocks 0…k−1 into
// its shard when recovery finds the damage. The reopen must still fail as
// a corrupt snapshot naming block k and its offset, return no store and
// no report, leave the file as it was and leave no shard WAL open,
// including those of the shards that recovered cleanly. The damage goes
// into the first, a middle and the last block of one shard's snapshot,
// and into one frame of the same shard's records written as a
// version-1 snapshot, which names the record. A block whose record count
// disagrees with or overruns its body, its CRC recomputed, fails on its
// layout.
func TestCorruptSnapshotFailsStoreOpen(t *testing.T) {
	const shards = 4
	products := testProducts(16)
	base := faultfs.New()
	st, _, err := Open(90, products, Options{FS: base, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, st, 160)
	if err := st.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	const victim = 2
	snapName := wal.ShardDir(victim) + "/snapshot.json"
	img, err := base.ReadFile(snapName)
	if err != nil {
		t.Fatal(err)
	}
	// Block offsets of the victim's snapshot: after the 16-byte header,
	// each block is its u32 body length, its CRC and the body.
	var blocks []int
	for off := 16; off < len(img); off += 8 + int(binary.LittleEndian.Uint32(img[off:])) {
		blocks = append(blocks, off)
	}
	if len(blocks) < 3 {
		t.Fatalf("shard %d's snapshot holds %d blocks, want at least 3", victim, len(blocks))
	}
	requireFails := func(label string, bad []byte, want string) {
		t.Helper()
		fs := base.Clone()
		fs.WriteFile(snapName, bad)
		h := &handleFS{FS: fs}
		st, rep, err := Open(90, products, Options{FS: h, Shards: shards})
		if !errors.Is(err, wal.ErrCorruptSnapshot) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: Open error %v, want a corrupt snapshot at %s", label, err, want)
		}
		if st != nil || rep != nil {
			t.Fatalf("%s: Open returned a store (%v) or a report (%+v) beside its error", label, st != nil, rep)
		}
		if h.open != 0 {
			t.Fatalf("%s: %d file handles left open after the failed Open", label, h.open)
		}
		if after, _ := fs.ReadFile(snapName); !bytes.Equal(after, bad) {
			t.Fatalf("%s: Open rewrote the corrupt snapshot", label)
		}
	}
	for _, k := range []int{0, len(blocks) / 2, len(blocks) - 1} {
		// Inside block k's body: its CRC fails.
		requireFails(fmt.Sprintf("block %d", k), bytesWithFlip(img, blocks[k]+8+3), fmt.Sprintf("block %d at byte %d: CRC mismatch", k, blocks[k]))
	}
	for _, overrun := range []bool{false, true} {
		bad := bytes.Clone(img)
		body := bad[blocks[1]+8 : blocks[2]]
		count := body[2+binary.LittleEndian.Uint16(body):]
		n := binary.LittleEndian.Uint32(count) + 1
		if overrun {
			n = 1 << 20
		}
		binary.LittleEndian.PutUint32(count, n)
		binary.LittleEndian.PutUint32(bad[blocks[1]+4:], crc32.ChecksumIEEE(body))
		requireFails(fmt.Sprintf("record count %d", n), bad, fmt.Sprintf("block 1 at byte %d: %d records do not tile", blocks[1], n))
	}

	var recs []wal.Record
	for _, p := range st.View().Products {
		for _, r := range p.Ratings {
			if Route(p.ID, shards) == victim {
				recs = append(recs, wal.Record{Product: p.ID, Rater: r.Rater, Value: r.Value, Day: r.Day})
			}
		}
	}
	frames := encodeLog(t, recs...)
	v1 := binary.LittleEndian.AppendUint32([]byte("RSNP"), 1)
	v1 = append(binary.LittleEndian.AppendUint64(v1, uint64(len(recs))), frames...)
	k, frame := len(recs)/2, 16
	for i := 0; i < k; i++ {
		frame += 8 + int(binary.LittleEndian.Uint32(v1[frame:]))
	}
	requireFails("version-1 record", bytesWithFlip(v1, frame+8+3), fmt.Sprintf("record %d of %d", k, len(recs)))
}

// bytesWithFlip returns a copy of b with byte i inverted.
func bytesWithFlip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0xff
	return c
}
