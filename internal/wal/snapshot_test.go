package wal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/wal"
)

// snapshotRecords flattens d the way a snapshot stores it: product by
// product, in series order, with no receipt time.
func snapshotRecords(d *dataset.Dataset) []wal.Record {
	var out []wal.Record
	for _, p := range d.Products {
		for _, r := range p.Ratings {
			out = append(out, wal.Record{Product: p.ID, Rater: r.Rater, Value: r.Value, Day: r.Day})
		}
	}
	return out
}

// requireRecords compares record lists bit-exactly.
func requireRecords(t *testing.T, label string, got, want []wal.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Product != w.Product || g.Rater != w.Rater ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) ||
			math.Float64bits(g.Day) != math.Float64bits(w.Day) ||
			g.ReceivedUnixNano != w.ReceivedUnixNano {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// compacted returns a faultfs holding a published snapshot of d and an
// empty log.
func compacted(t *testing.T, d *dataset.Dataset) *faultfs.FS {
	t.Helper()
	fs := faultfs.New()
	w, _, err := wal.Open(fs, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(d); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return fs
}

// A snapshot recovers exactly the compacted ratings, in product and
// series order, bit for bit (negative zero and fractional days included),
// ahead of the log tail; the published file starts with the magic. Before
// the first record, Expect announces exactly the frames that then replay,
// checkpoint and tail alike, so a caller sizes its state once from them.
func TestSnapshotRoundtripExact(t *testing.T) {
	d := &dataset.Dataset{HorizonDays: 90, Products: []dataset.Product{
		{ID: "tv0", Ratings: dataset.Series{{Day: 0, Value: math.Copysign(0, -1), Rater: "a"}, {Day: 1.0 / 3, Value: 0.1, Rater: "b", Unfair: true}}},
		{ID: "empty"},
		{ID: "tv1", Ratings: dataset.Series{{Day: 89.999, Value: 5, Rater: strings.Repeat("r", 300)}}},
	}}
	fs := compacted(t, d)
	img, err := fs.ReadFile("snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(img, []byte(wal.SnapshotMagic)) {
		t.Fatalf("snapshot starts %q, want the magic %q", img[:4], wal.SnapshotMagic)
	}
	w, _, err := wal.Open(fs, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 2)
	w.Close()

	_, rc, err := openReplay(t, fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rc.HasSnapshot || rc.SnapshotRecords != 3 {
		t.Fatalf("recovery has snapshot %v with %d records, want 3", rc.HasSnapshot, rc.SnapshotRecords)
	}
	requireRecords(t, "snapshot", rc.Records[:rc.SnapshotRecords], snapshotRecords(d))
	requireRecords(t, "tail", rc.Tail(), []wal.Record{rec(0), rec(1)})
	if len(rc.Expected) != len(rc.Records) {
		t.Fatalf("Expect announced %d frames, %d records replayed", len(rc.Expected), len(rc.Records))
	}
	for i, r := range rc.Records {
		if rc.Expected[i] != r.Product {
			t.Fatalf("frame %d announced product %q, record %d is of %q", i, rc.Expected[i], i, r.Product)
		}
	}
}

// An empty snapshot is a snapshot: recovery tells it apart from none.
func TestEmptySnapshotIsASnapshot(t *testing.T) {
	fs := compacted(t, &dataset.Dataset{HorizonDays: 90, Products: []dataset.Product{{ID: "tv0"}}})
	_, rc, err := openReplay(t, fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rc.HasSnapshot || rc.SnapshotRecords != 0 || len(rc.Records) != 0 {
		t.Fatalf("recovery = %+v, want an empty snapshot", rc)
	}
}

// A published snapshot was fsynced before its rename, so any damage to it
// is corruption, not a torn tail: Open fails naming the snapshot, leaves
// the file as it found it, and never recovers a shorter history. A JSON
// checkpoint of earlier builds, whole or cut, fails the same way and the
// error names the format.
func TestCorruptSnapshotFailsOpen(t *testing.T) {
	fs := compacted(t, snapshotDataset())
	good, err := fs.ReadFile("snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := snapshotDataset().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	frame := (len(good) - 16) / 3 // the three records are the same size
	flip := func(bit int) []byte {
		b := bytes.Clone(good)
		b[bit/8] ^= 1 << (bit % 8)
		return b
	}
	withVersion := func(v uint32) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint32(b[4:], v)
		return b
	}
	cases := map[string][]byte{
		"empty file":               {},
		"bit flip in magic":        flip(3),
		"bit flip in count":        flip(8*8 + 1),
		"bit flip in frame length": flip(8 * (16 + frame)),
		"bit flip in CRC":          flip(8*(16+4) + 5),
		"bit flip in payload":      flip(8 * (16 + 2*frame + 12)),
		"cut in header":            good[:10],
		"cut at frame boundary":    good[:16+2*frame],
		"cut mid-frame":            good[:len(good)-3],
		"trailing garbage":         append(bytes.Clone(good), 0x7, 0x13),
		"trailing frame":           append(bytes.Clone(good), good[16:16+frame]...),
		"bad magic":                append([]byte("XSNP"), good[4:]...),
		"unknown version":          withVersion(2),
		"version zero":             withVersion(0),
		"broken legacy JSON":       []byte(`{"horizonDays":90,"products":[{"id":"tv0","ratings":[{"day":1,`),
		"legacy JSON checkpoint":   js.Bytes(),
	}
	for name, img := range cases {
		t.Run(name, func(t *testing.T) {
			bad := fs.Clone()
			bad.WriteFile("snapshot.json", img)
			_, rc, err := openReplay(t, bad, wal.Options{})
			if err == nil {
				t.Fatalf("Open accepted a corrupt snapshot: %d records", len(rc.Records))
			}
			if !errors.Is(err, wal.ErrCorruptSnapshot) || !strings.Contains(err.Error(), "snapshot.json") {
				t.Fatalf("Open error %q does not name a corrupt snapshot.json", err)
			}
			if bytes.HasPrefix(img, []byte("{")) && !strings.Contains(err.Error(), "JSON checkpoint") {
				t.Fatalf("Open error %q does not name the JSON checkpoint format", err)
			}
			if after, _ := bad.ReadFile("snapshot.json"); !bytes.Equal(after, img) {
				t.Fatal("Open rewrote the corrupt snapshot")
			}
		})
	}
}

// Compact on the production FS: the rename fsyncs the directory, and a
// reopen sees the snapshot and an empty log.
func TestCompactOSDir(t *testing.T) {
	fsys, err := wal.OSDir(t.TempDir() + "/wal")
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := wal.Open(fsys, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 4)
	if err := w.Compact(snapshotDataset()); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, rc, err := openReplay(t, fsys, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireRecords(t, "snapshot", rc.Records, snapshotRecords(snapshotDataset()))
}
