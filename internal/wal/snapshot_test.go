package wal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
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
	if err := w.Compact(wal.Interned(d)); err != nil {
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
// the first record, Expect announces each product's count of the log
// frames that then replay, and nothing of the checkpoint, whose runs size
// themselves.
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
	if want := map[string]int{rec(0).Product: 1, rec(1).Product: 1}; !reflect.DeepEqual(rc.Expected, want) {
		t.Fatalf("Expect announced %v, want %v", rc.Expected, want)
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

// blockOffsets returns the byte offsets of a snapshot's blocks (block 0
// is the rater dictionary): after the 16-byte header, each block is its
// u32 body length, its CRC and the body.
func blockOffsets(img []byte) []int {
	var offs []int
	for off := 16; off < len(img); off += 8 + int(binary.LittleEndian.Uint32(img[off:])) {
		offs = append(offs, off)
	}
	return offs
}

// A published snapshot was fsynced before its rename, so any damage to it
// is corruption, not a torn tail: Open fails naming the snapshot, leaves
// the file as it found it, and never recovers a shorter history. A JSON
// checkpoint of earlier builds, whole or cut, fails the same way and the
// error names the format. A snapshot frames its rater dictionary and
// each product's block as the log frames a record (a length, a CRC, a
// body), so the frame cases damage blocks; a damaged block is named with
// its offset. A dictionary that names a rater twice, or a rating whose
// ordinal is not below the dictionary's length, fails too, even under a
// good CRC.
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
	blocks := blockOffsets(good)
	if len(blocks) != 3 {
		t.Fatalf("snapshot of two products holds %d blocks, want a dictionary and 2", len(blocks))
	}
	last := blocks[2]
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
	withCount := func(n uint64) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint64(b[8:], n)
		return b
	}
	// withByte sets byte i of the block at off, then its CRC.
	withByte := func(off, i int, v byte) []byte {
		b := bytes.Clone(good)
		b[i] = v
		body := b[off+8 : off+8+int(binary.LittleEndian.Uint32(b[off:]))]
		binary.LittleEndian.PutUint32(b[off+4:], crc32.ChecksumIEEE(body))
		return b
	}
	// The dictionary names a, b, c; tv0's block names b by ordinal 1.
	names, bOrd := blocks[0]+8+4+3*4, blocks[1]+8+2+len("tv0")+4+4
	cases := map[string]struct {
		img  []byte
		want string // in the error, when set
	}{
		"empty file":               {img: []byte{}},
		"bit flip in magic":        {img: flip(3)},
		"bit flip in count":        {img: flip(8*8 + 1)},
		"bit flip in frame length": {img: flip(8 * last), want: fmt.Sprintf("block 2 at byte %d", last)},
		"bit flip in CRC":          {img: flip(8*(16+4) + 5), want: "block 0 at byte 16: CRC mismatch"},
		"bit flip in payload":      {img: flip(8 * (last + 8 + 5)), want: fmt.Sprintf("block 2 at byte %d: CRC mismatch", last)},
		"cut in header":            {img: good[:10]},
		"cut at frame boundary":    {img: good[:last], want: fmt.Sprintf("block 2 at byte %d", last)},
		"cut mid-frame":            {img: good[:len(good)-3], want: fmt.Sprintf("block 2 at byte %d", last)},
		"cut in the dictionary":    {img: good[:blocks[1]-1], want: "block 0 at byte 16"},
		"trailing garbage":         {img: append(bytes.Clone(good), 0x7, 0x13), want: "2 trailing bytes"},
		"trailing frame":           {img: append(bytes.Clone(good), good[last:]...), want: "trailing bytes"},
		"count past the blocks":    {img: withCount(4), want: "3 of 4 records"},
		"count short of a block":   {img: withCount(1), want: fmt.Sprintf("block 1 at byte %d: 2 records pass the header's count of 1", blocks[1])},
		"a rater named twice":      {img: withByte(blocks[0], names+1, 'a'), want: "block 0 at byte 16: the rater dictionary names a rater twice"},
		"an ordinal equal to K":    {img: withByte(blocks[1], bOrd, 3), want: fmt.Sprintf("block 1 at byte %d: record 1 names rater 3 of 3", blocks[1])},
		"bad magic":                {img: append([]byte("XSNP"), good[4:]...)},
		"unknown version":          {img: withVersion(4), want: "unknown version 4"},
		"version zero":             {img: withVersion(0)},
		"broken legacy JSON":       {img: []byte(`{"horizonDays":90,"products":[{"id":"tv0","ratings":[{"day":1,`)},
		"legacy JSON checkpoint":   {img: js.Bytes()},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			bad := fs.Clone()
			bad.WriteFile("snapshot.json", c.img)
			_, rc, err := openReplay(t, bad, wal.Options{})
			if err == nil {
				t.Fatalf("Open accepted a corrupt snapshot: %d records", len(rc.Records))
			}
			if !errors.Is(err, wal.ErrCorruptSnapshot) || !strings.Contains(err.Error(), "snapshot.json") {
				t.Fatalf("Open error %q does not name a corrupt snapshot.json", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Open error %q does not say %q", err, c.want)
			}
			if bytes.HasPrefix(c.img, []byte("{")) && !strings.Contains(err.Error(), "JSON checkpoint") {
				t.Fatalf("Open error %q does not name the JSON checkpoint format", err)
			}
			if after, _ := bad.ReadFile("snapshot.json"); !bytes.Equal(after, c.img) {
				t.Fatal("Open rewrote the corrupt snapshot")
			}
		})
	}
}

// A version-1 snapshot (the records in the log's framing) is still read:
// it replays the records a version-3 snapshot of the same dataset does,
// a bad frame in it fails naming the record, and the next Compact writes
// version 3.
func TestVersion1SnapshotStillRead(t *testing.T) {
	d := snapshotDataset()
	v1 := binary.LittleEndian.AppendUint32([]byte(wal.SnapshotMagic), 1)
	v1 = binary.LittleEndian.AppendUint64(v1, 3)
	v1 = append(v1, encodeLog(t, snapshotRecords(d)...)...)
	fs := faultfs.New()
	fs.WriteFile("snapshot.json", v1)
	w, rc, err := openReplay(t, fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rc.HasSnapshot || rc.SnapshotRecords != 3 {
		t.Fatalf("recovery has snapshot %v with %d records, want 3", rc.HasSnapshot, rc.SnapshotRecords)
	}
	requireRecords(t, "version 1", rc.Records, snapshotRecords(d))
	if err := w.Compact(wal.Interned(d)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if img, _ := fs.ReadFile("snapshot.json"); binary.LittleEndian.Uint32(img[4:]) != 3 {
		t.Fatalf("Compact wrote version %d, want 3", binary.LittleEndian.Uint32(img[4:]))
	}

	bad := bytes.Clone(v1)
	bad[len(bad)-5] ^= 0xff // inside the third record's payload
	fs.WriteFile("snapshot.json", bad)
	if _, _, err := openReplay(t, fs, wal.Options{}); !errors.Is(err, wal.ErrCorruptSnapshot) || !strings.Contains(err.Error(), "record 2 of 3") {
		t.Fatalf("Open error %v, want a corrupt snapshot at record 2 of 3", err)
	}
}

// encodeLog returns the log bytes a fresh WAL writes for recs.
func encodeLog(t *testing.T, recs ...wal.Record) []byte {
	t.Helper()
	fs := faultfs.New()
	w, _, err := wal.Open(fs, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data, _ := fs.ReadFile("wal.log")
	return data
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
	if err := w.Compact(wal.Interned(snapshotDataset())); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, rc, err := openReplay(t, fsys, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireRecords(t, "snapshot", rc.Records, snapshotRecords(snapshotDataset()))
}
