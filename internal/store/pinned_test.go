package store

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/wal"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/pinned-v3 from pinnedHistory instead of checking it")

// The pinned WAL directories: a manifest and two shards, written by the
// store from pinnedHistory and then killed (copied before Close). Shard
// pinnedSnapShard checkpointed after pinnedSnapEvery ratings and holds a
// snapshot and a log tail; the other shard holds a log only, ending in a
// torn half frame. pinnedDir holds a version-1 snapshot and pinnedV2Dir
// a version-2 one, each kept as it was recorded; pinnedV3Dir holds a
// version-3 snapshot and is what -update-pinned rewrites. A change to the
// frame, snapshot or manifest bytes that DESIGN.md §7 does not describe
// fails the tests below.
const (
	pinnedDir       = "testdata/pinned"
	pinnedV2Dir     = "testdata/pinned-v2"
	pinnedV3Dir     = "testdata/pinned-v3"
	pinnedHorizon   = 90
	pinnedShards    = 2
	pinnedSnapEvery = 6
)

// pinnedFiles are the files of the pinned directory, relative to it.
var pinnedFiles = []string{
	"wal-manifest.json",
	"shard-000/snapshot.json", "shard-000/wal.log",
	"shard-001/snapshot.json", "shard-001/wal.log",
}

// pinnedHistory is the fixed history behind the pinned directory, in
// submit order. Products 0 and 2 route to shard 1, which takes nine
// ratings and checkpoints after its sixth; products 1 and 3 route to
// shard 0, which takes five and never checkpoints. Each rater rates two
// products, and days fall with the submit index, so every rating but a
// product's first lands before its earlier ones. The torn frame is
// torn's, in shard 0's log.
func pinnedHistory() (products []string, hist []wal.Record, torn wal.Record) {
	products = testProducts(4)
	for i, c := range "01203201203210" {
		hist = append(hist, wal.Record{
			Product: products[c-'0'],
			Rater:   fmt.Sprintf("rater-%02d", i/2),
			Value:   float64(i%11) / 2,
			Day:     float64(60-4*i) + 1.0/3,
		})
	}
	return products, hist, wal.Record{Product: products[1], Rater: "torn", Value: 2.5, Day: 7}
}

// pinnedSnapShard is the shard that checkpoints.
func pinnedSnapShard(products []string) int { return Route(products[0], pinnedShards) }

// pinnedFS loads a pinned directory into a fresh faultfs, so opening it
// truncates the copy and never the checked-in files.
func pinnedFS(t *testing.T, dir string) *faultfs.FS {
	t.Helper()
	fs := faultfs.New()
	for _, name := range pinnedFiles {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		fs.WriteFile(name, data)
	}
	return fs
}

// writePinned regenerates the version-3 pinned directory: the store Submits
// pinnedHistory with the snapshot trigger at pinnedSnapEvery, the
// directory is copied before Close (a kill), and half of torn's frame is
// appended to the other shard's log.
func writePinned(t *testing.T) {
	products, hist, torn := pinnedHistory()
	fs := faultfs.New()
	st, _, err := Open(pinnedHorizon, products, Options{FS: fs, Shards: pinnedShards, SnapshotEvery: pinnedSnapEvery})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hist {
		if _, err := st.Submit(context.Background(), r.Product, r.Rater, r.Value, r.Day); err != nil {
			t.Fatal(err)
		}
	}
	killed := fs.Clone()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	frame := encodeLog(t, torn)
	tornLog := wal.ShardDir(1-pinnedSnapShard(products)) + "/wal.log"
	data, err := killed.ReadFile(tornLog)
	if err != nil {
		t.Fatal(err)
	}
	killed.WriteFile(tornLog, append(data, frame[:len(frame)/2]...))
	for _, name := range pinnedFiles {
		data, err := killed.ReadFile(name)
		if err != nil {
			continue
		}
		path := filepath.Join(pinnedV3Dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// encodeLog returns the log bytes a fresh WAL writes for recs.
func encodeLog(t testing.TB, recs ...wal.Record) []byte {
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
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPinnedWALDirectory opens the three pinned directories with the
// current code: from each, the recovered ratings must equal an in-memory
// store's after it Submits pinnedHistory, and the RecoveryReport must
// equal the recorded one, so the version-1, version-2 and version-3
// snapshots recover the same View and report. Close then compacts every
// shard's log into a version-3 snapshot.
func TestPinnedWALDirectory(t *testing.T) {
	if *updatePinned {
		writePinned(t)
	}
	products, hist, torn := pinnedHistory()
	ref, err := New(pinnedHorizon, products, pinnedShards)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hist {
		if _, err := ref.Submit(context.Background(), r.Product, r.Rater, r.Value, r.Day); err != nil {
			t.Fatal(err)
		}
	}
	want := RecoveryReport{SnapshotRatings: 6, ReplayedRatings: 8, TruncatedBytes: int64(len(encodeLog(t, torn)) / 2)}
	for _, dir := range []string{pinnedDir, pinnedV2Dir, pinnedV3Dir} {
		fs := pinnedFS(t, dir)
		st, rep, err := Open(pinnedHorizon, products, Options{FS: fs, Shards: pinnedShards})
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if !reflect.DeepEqual(*rep, want) {
			t.Fatalf("%s: report %+v, want %+v", dir, *rep, want)
		}
		if got, exp := st.View(), ref.View(); !reflect.DeepEqual(got, exp) {
			t.Fatalf("%s: recovered %+v, want %+v", dir, got, exp)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < pinnedShards; s++ {
			if img, err := fs.ReadFile(wal.ShardDir(s) + "/snapshot.json"); err != nil || binary.LittleEndian.Uint32(img[4:]) != 3 {
				t.Fatalf("%s: after Close, shard %d's snapshot is %x (%v), want version 3", dir, s, img[:min(len(img), 8)], err)
			}
		}
	}
}

// TestPinnedWALBytes re-encodes the version-3 pinned files from pinnedHistory and
// compares them byte for byte: the snapshot from the checkpointed
// shard's first pinnedSnapEvery ratings, each log from the records
// submitted after its shard's checkpoint, and the manifest from its
// fields. A log frame's receipt time is the one thing the history does
// not fix, so it is read back from the recorded frame (readFrames).
func TestPinnedWALBytes(t *testing.T) {
	products, hist, torn := pinnedHistory()
	snapShard := pinnedSnapShard(products)
	part, err := New(pinnedHorizon, products, pinnedShards)
	if err != nil {
		t.Fatal(err)
	}
	var tails [pinnedShards][]wal.Record
	snapped := 0
	for _, r := range hist {
		s := Route(r.Product, pinnedShards)
		if s == snapShard && snapped < pinnedSnapEvery {
			snapped++
			if _, err := part.Submit(context.Background(), r.Product, r.Rater, r.Value, r.Day); err != nil {
				t.Fatal(err)
			}
			continue
		}
		tails[s] = append(tails[s], r)
	}

	want := map[string][]byte{}
	snapFS := faultfs.New()
	w, _, err := wal.Open(snapFS, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh := part.shards[snapShard]
	if err := w.Compact(sh.data, sh.raters, sh.ords); err != nil {
		t.Fatal(err)
	}
	w.Close()
	want[wal.ShardDir(snapShard)+"/snapshot.json"], _ = snapFS.ReadFile("snapshot.json")
	for s := range tails {
		logName := wal.ShardDir(s) + "/wal.log"
		recorded, err := os.ReadFile(filepath.Join(pinnedV3Dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := readFrames(recorded)
		if len(recs) != len(tails[s]) {
			t.Fatalf("%s holds %d records, want %d", logName, len(recs), len(tails[s]))
		}
		for i, r := range recs {
			tails[s][i].ReceivedUnixNano = r.ReceivedUnixNano
		}
		want[logName] = encodeLog(t, tails[s]...)
		if s != snapShard {
			frame := encodeLog(t, torn)
			want[logName] = append(want[logName], frame[:len(frame)/2]...)
		}
	}
	mfs := faultfs.New()
	if err := wal.WriteManifest(mfs, wal.Manifest{Version: wal.ManifestVersion, Shards: pinnedShards, Hash: wal.RouteHashName}); err != nil {
		t.Fatal(err)
	}
	want["wal-manifest.json"], _ = mfs.ReadFile("wal-manifest.json")

	for _, name := range pinnedFiles {
		got, err := os.ReadFile(filepath.Join(pinnedV3Dir, name))
		if os.IsNotExist(err) {
			got = nil
		} else if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[name]) {
			t.Errorf("%s: recorded %d bytes %x\nre-encoded %d bytes %x", name, len(got), got, len(want[name]), want[name])
		}
	}
}

// TestPinnedSnapshotSecondReader parses the version-3 pinned snapshot
// from DESIGN.md §7's format table alone, without internal/wal: a header
// (magic, version 3, record count), then blocks of a body length, the
// CRC32 (IEEE) of the whole body, and the body. Block 0 is the rater
// dictionary (K, K name lengths, the names), which names no rater twice;
// each later block is a product's (the product ID, N, N rater ordinals
// below K, N value bits and N day bits). The blocks must hold the
// checkpointed shard's first pinnedSnapEvery ratings, product by product
// in series order, as an in-memory store builds them from pinnedHistory.
func TestPinnedSnapshotSecondReader(t *testing.T) {
	products, hist, _ := pinnedHistory()
	snapShard := pinnedSnapShard(products)
	part, err := New(pinnedHorizon, products, pinnedShards)
	if err != nil {
		t.Fatal(err)
	}
	snapped := 0
	for _, r := range hist {
		if Route(r.Product, pinnedShards) == snapShard && snapped < pinnedSnapEvery {
			snapped++
			if _, err := part.Submit(context.Background(), r.Product, r.Rater, r.Value, r.Day); err != nil {
				t.Fatal(err)
			}
		}
	}
	type rating struct {
		product, rater     string
		valueBits, dayBits uint64
	}
	var want []rating
	for _, p := range part.shards[snapShard].data.Products {
		for _, r := range p.Ratings {
			want = append(want, rating{p.ID, r.Rater, math.Float64bits(r.Value), math.Float64bits(r.Day)})
		}
	}

	data, err := os.ReadFile(filepath.Join(pinnedV3Dir, wal.ShardDir(snapShard), "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	if len(data) < 16 || string(data[:4]) != "RSNP" || le.Uint32(data[4:]) != 3 {
		t.Fatalf("header %x, want magic RSNP and version 3", data[:min(len(data), 16)])
	}
	count := le.Uint64(data[8:])
	var names []string
	var got []rating
	for off := 16; off < len(data); {
		if len(data)-off < 8 || len(data)-off-8 < int(le.Uint32(data[off:])) {
			t.Fatalf("block at byte %d runs past the file", off)
		}
		body := data[off+8 : off+8+int(le.Uint32(data[off:]))]
		if crc32.ChecksumIEEE(body) != le.Uint32(data[off+4:]) {
			t.Fatalf("block at byte %d: the CRC32 of its body is %08x, the block says %08x", off, crc32.ChecksumIEEE(body), le.Uint32(data[off+4:]))
		}
		if off == 16 {
			k, rest := int(le.Uint32(body)), body[4+4*int(le.Uint32(body)):]
			for o := 0; o < k; o++ {
				l := le.Uint32(body[4+4*o:])
				if slices.Contains(names, string(rest[:l])) {
					t.Fatalf("the dictionary names %q twice", rest[:l])
				}
				names, rest = append(names, string(rest[:l])), rest[l:]
			}
			if len(rest) != 0 {
				t.Fatalf("the dictionary's %d names leave %d bytes", k, len(rest))
			}
			off += 8 + len(body)
			continue
		}
		off += 8 + len(body)
		product := string(body[2 : 2+le.Uint16(body)])
		rest := body[2+len(product):]
		n := int(le.Uint32(rest))
		if rest = rest[4:]; len(rest) != 20*n {
			t.Fatalf("block of %q: %d bytes of columns, want %d", product, len(rest), 20*n)
		}
		for i := 0; i < n; i++ {
			o := int(le.Uint32(rest[4*i:]))
			if o >= len(names) {
				t.Fatalf("block of %q: rating %d names rater %d of %d", product, i, o, len(names))
			}
			got = append(got, rating{product, names[o], le.Uint64(rest[4*n+8*i:]), le.Uint64(rest[12*n+8*i:])})
		}
	}
	if count != uint64(len(got)) || !reflect.DeepEqual(got, want) {
		t.Fatalf("the header counts %d records, the blocks hold %+v; want %+v", count, got, want)
	}
}

// readFrames parses log frames from DESIGN.md §7's record table alone,
// without internal/wal: each frame is a u32 payload length, the CRC32
// (IEEE) of the payload, and the payload, at most 64 KiB, whose fields
// (a u16 product ID length and the ID, a u16 rater ID length and the ID,
// the value bits, the day bits and the receipt time) tile it exactly. It
// returns the records of the frames in front of the first that breaks a
// rule, in file order, and the bytes they span.
func readFrames(data []byte) (recs []wal.Record, n int) {
	le := binary.LittleEndian
	for len(data)-n >= 8 {
		l := int(le.Uint32(data[n:]))
		if l > 1<<16 || len(data)-n-8 < l {
			break
		}
		payload := data[n+8 : n+8+l]
		if crc32.ChecksumIEEE(payload) != le.Uint32(data[n+4:]) || l < 2 {
			break
		}
		p := int(le.Uint16(payload))
		if l < 2+p+2 {
			break
		}
		r := int(le.Uint16(payload[2+p:]))
		if l != 2+p+2+r+24 {
			break
		}
		tail := payload[4+p+r:]
		recs = append(recs, wal.Record{
			Product: string(payload[2 : 2+p]), Rater: string(payload[4+p : 4+p+r]),
			Value: math.Float64frombits(le.Uint64(tail)), Day: math.Float64frombits(le.Uint64(tail[8:])),
			ReceivedUnixNano: int64(le.Uint64(tail[16:])),
		})
		n += 8 + l
	}
	return recs, n
}

// TestPinnedLogSecondReader reads the pinned directories' log frames,
// the version-1 snapshot's frames and the manifest from DESIGN.md §7's
// tables alone (readFrames and encoding/json), without internal/wal.
// Each shard's log must hold, in submit order, the ratings pinnedHistory
// gave its products after its checkpoint, shard 0's log then half of
// torn's frame, and the version-1 snapshot the checkpointed ratings,
// product by product in series order, with receipt time 0. The
// manifest must be exactly {version 1, 2 shards, hash "fnv1a64"}, and
// every record must lie in the shard that FNV-1a-64 of its product ID,
// mod 2, names (computed with hash/fnv).
func TestPinnedLogSecondReader(t *testing.T) {
	products, hist, torn := pinnedHistory()
	snapShard := pinnedSnapShard(products)
	type rating struct {
		product, rater     string
		valueBits, dayBits uint64
	}
	of := func(r wal.Record) rating {
		return rating{r.Product, r.Rater, math.Float64bits(r.Value), math.Float64bits(r.Day)}
	}
	var tails [pinnedShards][]rating
	var snapped []wal.Record
	for _, r := range hist {
		s := Route(r.Product, pinnedShards)
		if s == snapShard && len(snapped) < pinnedSnapEvery {
			snapped = append(snapped, r)
			continue
		}
		tails[s] = append(tails[s], of(r))
	}
	var checkpoint []rating
	for _, id := range products {
		var series []wal.Record
		for _, r := range snapped {
			if r.Product == id {
				series = append(series, r)
			}
		}
		slices.SortStableFunc(series, func(a, b wal.Record) int { return cmp.Compare(a.Day, b.Day) })
		for _, r := range series {
			checkpoint = append(checkpoint, of(r))
		}
	}
	tornLen := 8 + 2 + len(torn.Product) + 2 + len(torn.Rater) + 24
	shardOf := func(product string) int {
		h := fnv.New64a()
		h.Write([]byte(product))
		return int(h.Sum64() % pinnedShards)
	}

	for _, dir := range []string{pinnedDir, pinnedV2Dir, pinnedV3Dir} {
		raw, err := os.ReadFile(filepath.Join(dir, "wal-manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Version, Shards int
			Hash            string
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&m); err != nil || m.Version != 1 || m.Shards != pinnedShards || m.Hash != "fnv1a64" {
			t.Fatalf("%s: manifest %s decodes to %+v (%v), want version 1, %d shards, hash fnv1a64", dir, raw, m, err, pinnedShards)
		}
		files := map[string][]rating{}
		for s := 0; s < pinnedShards; s++ {
			name := fmt.Sprintf("shard-%03d/wal.log", s)
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			recs, n := readFrames(data)
			want := 0
			if s != snapShard {
				want = tornLen / 2
			}
			if len(data)-n != want {
				t.Fatalf("%s/%s: %d bytes after the last whole frame, want %d (torn's frame is %d bytes)", dir, name, len(data)-n, want, tornLen)
			}
			for _, r := range recs {
				files[name] = append(files[name], of(r))
				if shardOf(r.Product) != s {
					t.Fatalf("%s/%s holds a record of %q, which FNV-1a routes to shard %d", dir, name, r.Product, shardOf(r.Product))
				}
			}
			if !reflect.DeepEqual(files[name], tails[s]) {
				t.Fatalf("%s/%s holds %+v, want %+v", dir, name, files[name], tails[s])
			}
		}
		if dir != pinnedDir {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("shard-%03d/snapshot.json", snapShard)))
		if err != nil {
			t.Fatal(err)
		}
		le := binary.LittleEndian
		if len(data) < 16 || string(data[:4]) != "RSNP" || le.Uint32(data[4:]) != 1 {
			t.Fatalf("version-1 snapshot header %x, want magic RSNP and version 1", data[:min(len(data), 16)])
		}
		recs, n := readFrames(data[16:])
		var got []rating
		for _, r := range recs {
			if got = append(got, of(r)); r.ReceivedUnixNano != 0 {
				t.Fatalf("version-1 snapshot record %+v has a receipt time", r)
			}
		}
		if n != len(data)-16 || le.Uint64(data[8:]) != uint64(len(recs)) || !reflect.DeepEqual(got, checkpoint) {
			t.Fatalf("version-1 snapshot: header counts %d, frames span %d of %d bytes and hold %+v; want %+v",
				le.Uint64(data[8:]), n, len(data)-16, got, checkpoint)
		}
	}
}
