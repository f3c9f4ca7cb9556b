package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/trust"
)

// FuzzWALDecode drives the record decoder and the torn-tail recovery scan
// with corrupt, truncated and bit-flipped log images. The properties under
// test are the crash-safety contract of DESIGN.md §7:
//
//  1. decodeRecord never panics on arbitrary bytes, never over-consumes,
//     and any frame it accepts re-encodes to the identical bytes (the
//     framing is canonical).
//  2. Truncating an encoded stream at any byte recovers exactly the
//     records whose frames fit entirely before the cut — a torn tail never
//     drops an intact prefix record and never invents a record.
//  3. Flipping any single bit corrupts at most the frame it lands in and
//     everything after it: records in earlier frames are recovered intact.
//  4. Open's recovery scan agrees with the pure decoder and physically
//     truncates the torn tail.
func FuzzWALDecode(f *testing.F) {
	// Seeds: an empty log, raw garbage, a valid two-record stream, and a
	// stream with a crafted oversized length prefix.
	f.Add([]byte{}, uint16(0), uint32(0))
	f.Add([]byte("not a wal log at all, just bytes"), uint16(7), uint32(13))
	var seed []byte
	seed, _ = appendRecord(seed, Record{Product: "p0", Rater: "alice", Value: 4.5, Day: 3, ReceivedUnixNano: 42})
	seed, _ = appendRecord(seed, Record{Product: "p1", Rater: "bob", Value: 1, Day: 61})
	f.Add(seed, uint16(len(seed)-1), uint32(5))
	huge := binary.LittleEndian.AppendUint32(nil, maxRecordSize+1)
	f.Add(append(huge, seed...), uint16(3), uint32(100))
	for _, name := range []string{"shard-000/wal.log", "shard-001/wal.log"} {
		log := readPinned(f, "pinned", name)
		f.Add(log, uint16(len(log)/2), uint32(len(log)*3))
	}

	f.Fuzz(func(t *testing.T, raw []byte, cut uint16, flip uint32) {
		// (1) Arbitrary bytes: scan to the end without panicking; accepted
		// frames must round-trip byte-for-byte.
		off := 0
		for off < len(raw) {
			r, n, ok := decodeRecord(raw[off:])
			if !ok {
				break
			}
			if n <= 0 || off+n > len(raw) {
				t.Fatalf("decodeRecord consumed %d bytes of %d available", n, len(raw)-off)
			}
			re, err := appendRecord(nil, r)
			if err != nil {
				t.Fatalf("re-encode of accepted record failed: %v", err)
			}
			if !bytes.Equal(re, raw[off:off+n]) {
				t.Fatalf("accepted frame is not canonical: %x vs %x", raw[off:off+n], re)
			}
			off += n
		}

		// Build a known-good stream from the fuzz input.
		recs := deriveRecords(raw)
		if len(recs) == 0 {
			return
		}
		var stream []byte
		frameEnd := make([]int, len(recs)) // byte offset just past frame i
		for i, r := range recs {
			var err error
			stream, err = appendRecord(stream, r)
			if err != nil {
				t.Fatalf("encode derived record: %v", err)
			}
			frameEnd[i] = len(stream)
		}

		// (2) Torn tail: every cut point keeps exactly the full frames.
		cutAt := int(cut) % (len(stream) + 1)
		wantIntact := 0
		for wantIntact < len(recs) && frameEnd[wantIntact] <= cutAt {
			wantIntact++
		}
		got := scanRecords(stream[:cutAt])
		if len(got) != wantIntact {
			t.Fatalf("cut at %d: recovered %d records, want %d intact", cutAt, len(got), wantIntact)
		}
		for i := 0; i < wantIntact; i++ {
			requireSameRecord(t, fmt.Sprintf("cut %d record %d", cutAt, i), recs[i], got[i])
		}

		// (3) Bit flip: frames before the flipped byte's frame survive.
		flipAt := int(flip) % (len(stream) * 8)
		flipped := append([]byte(nil), stream...)
		flipped[flipAt/8] ^= 1 << (flipAt % 8)
		frame := 0
		for frame < len(recs) && frameEnd[frame] <= flipAt/8 {
			frame++
		}
		got = scanRecords(flipped)
		if len(got) < frame {
			t.Fatalf("bit flip in frame %d dropped intact prefix: got %d records", frame, len(got))
		}
		for i := 0; i < frame; i++ {
			requireSameRecord(t, fmt.Sprintf("flip bit %d record %d", flipAt, i), recs[i], got[i])
		}

		// (4) Open agrees with the pure scan and truncates the torn tail.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), stream[:cutAt], 0o644); err != nil {
			t.Fatal(err)
		}
		fsys, err := OSDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var replayed []Record
		w, rec, err := Open(fsys, Options{}, ReplayFunc(func(r Record, _ bool) { replayed = append(replayed, r) }))
		if err != nil {
			t.Fatalf("Open on truncated log: %v", err)
		}
		defer w.Close()
		if len(replayed) != wantIntact || rec.TailRecords != wantIntact {
			t.Fatalf("Open recovered %d records (counted %d), want %d", len(replayed), rec.TailRecords, wantIntact)
		}
		intactBytes := 0
		if wantIntact > 0 {
			intactBytes = frameEnd[wantIntact-1]
		}
		if rec.TruncatedBytes != int64(cutAt-intactBytes) {
			t.Fatalf("TruncatedBytes = %d, want %d", rec.TruncatedBytes, cutAt-intactBytes)
		}
		if info, err := os.Stat(filepath.Join(dir, logName)); err != nil || info.Size() != int64(intactBytes) {
			t.Fatalf("log not truncated to intact prefix: size %v err %v, want %d", info, err, intactBytes)
		}
	})
}

// FuzzSnapshotDecode drives the snapshot reader with arbitrary, cut and
// bit-flipped images of the three format versions it reads. A published
// snapshot is never torn, so the contract differs from the log's
// (DESIGN.md §7):
//
//  1. decodeSnapshot never panics on arbitrary bytes, and an image it
//     accepts re-encodes in its own version (encodeSnapshot from the
//     decoded dictionary and ordinals for version 3, encodeV2 for
//     version 2, a header plus appendRecord frames for version 1) to the
//     identical bytes: the format is canonical, and a JSON checkpoint
//     from an earlier build is never accepted.
//  2. Cutting an encoded image at any byte short of its end is rejected.
//  3. Flipping any single bit is rejected or decodes to exactly the
//     encoded records: a damaged snapshot never yields a shorter or
//     different history.
func FuzzSnapshotDecode(f *testing.F) {
	var seed []byte
	seed = appendV1Header(seed, 2)
	seed, _ = appendRecord(seed, Record{Product: "p0", Rater: "alice", Value: 4.5, Day: 3})
	seed, _ = appendRecord(seed, Record{Product: "p1", Rater: "bob", Value: 1, Day: 61})
	f.Add(seed, uint16(len(seed)-1), uint32(5))
	f.Add(appendV1Header(nil, 0), uint16(3), uint32(70))
	f.Add([]byte(`{"horizonDays":90,"products":[{"id":"tv0","ratings":[{"day":1,"value":4,"rater":"a"}]}]}`), uint16(9), uint32(1))
	f.Add([]byte("RSNP\x02\x00\x00\x00"), uint16(0), uint32(0))
	f.Add([]byte("not a snapshot"), uint16(7), uint32(13))
	snap := readPinned(f, "pinned", "shard-001/snapshot.json")
	f.Add(snap, uint16(len(snap)/2), uint32(len(snap)*5))
	// Version 2: the pinned snapshot, its first block with one CRC bit
	// flipped, and a block whose N claims more records than its body
	// holds (its CRC recomputed, so the count check is what refuses it).
	snap = readPinned(f, "pinned-v2", "shard-001/snapshot.json")
	f.Add(snap, uint16(len(snap)/3), uint32(len(snap)*7))
	badCRC := bytes.Clone(snap)
	badCRC[snapshotHeaderSize+4] ^= 1
	f.Add(badCRC, uint16(0), uint32(0))
	one := &dataset.Dataset{Products: []dataset.Product{{ID: "p0", Ratings: dataset.Series{{Day: 3, Value: 4.5, Rater: "alice"}}}}}
	overrun := encodeV2(f, one)
	body := overrun[snapshotHeaderSize+headerSize:]
	binary.LittleEndian.PutUint32(body[2+len("p0"):], 2)
	binary.LittleEndian.PutUint32(overrun[snapshotHeaderSize+4:], crc32.ChecksumIEEE(body))
	f.Add(overrun, uint16(len(overrun)-1), uint32(9))
	// Version 3: the pinned snapshot, and three images whose CRCs are
	// recomputed so the layout checks refuse them: a dictionary that names
	// a rater twice, an ordinal equal to the dictionary's length K, and a
	// block whose N does not tile its body.
	snap = readPinned(f, "pinned-v3", "shard-001/snapshot.json")
	f.Add(snap, uint16(len(snap)/3), uint32(len(snap)*7))
	two := &dataset.Dataset{Products: []dataset.Product{{ID: "p0", Ratings: dataset.Series{{Day: 3, Value: 4.5, Rater: "ab"}, {Day: 4, Value: 1, Rater: "ac"}}}}}
	twice := encodeV3(f, two)
	names := snapshotHeaderSize + headerSize + 4 + 2*4 // "ab", then "ac"
	twice[names+3] = 'b'
	f.Add(recrc(twice, snapshotHeaderSize), uint16(names), uint32(5))
	pastK := encodeV3(f, two)
	block := blockAt(pastK, 1)
	binary.LittleEndian.PutUint32(pastK[block+headerSize+2+len("p0")+4+4:], 2)
	f.Add(recrc(pastK, block), uint16(block), uint32(3))
	untiled := encodeV3(f, two)
	binary.LittleEndian.PutUint32(untiled[blockAt(untiled, 1)+headerSize+2+len("p0"):], 1)
	f.Add(recrc(untiled, blockAt(untiled, 1)), uint16(0), uint32(0))

	f.Fuzz(func(t *testing.T, raw []byte, cut uint16, flip uint32) {
		// (1) Arbitrary bytes.
		if runs, err := decodeSnapshotRuns(t, raw); err == nil {
			var re []byte
			switch binary.LittleEndian.Uint32(raw[4:]) {
			case 1:
				re = encodeV1(t, runs.recs)
			case 2:
				re = encodeV2(t, &runs.Dataset)
			default:
				re, err = encodeSnapshot(&runs.Dataset, runs.raters, runs.ords)
				if err != nil {
					t.Fatalf("re-encode: %v", err)
				}
			}
			if !bytes.Equal(re, raw) {
				t.Fatalf("accepted snapshot is not canonical: %x re-encodes to %x", raw, re)
			}
		}

		// Encode a known-good image of each version from the fuzz input
		// (possibly empty). A snapshot holds no receipt time.
		recs := deriveRecords(raw)
		for i := range recs {
			recs[i].ReceivedUnixNano = 0
		}
		runs := runsOf(recs)
		for _, img := range [][]byte{encodeV1(t, recs), encodeV2(t, &runs.Dataset), encodeV3(t, &runs.Dataset)} {
			got, err := decodeSnapshotRuns(t, img)
			if err != nil {
				t.Fatalf("encoded snapshot rejected: %v", err)
			}
			requireSameRecords(t, "round trip", recs, got.recs)

			// (2) Every cut short of the end is rejected.
			cutAt := int(cut) % len(img)
			if got, err := decodeSnapshotRuns(t, img[:cutAt]); err == nil {
				t.Fatalf("snapshot cut at %d of %d accepted with %d records", cutAt, len(img), len(got.recs))
			}

			// (3) A flipped bit is rejected or changes nothing.
			flipAt := int(flip) % (len(img) * 8)
			flipped := bytes.Clone(img)
			flipped[flipAt/8] ^= 1 << (flipAt % 8)
			if got, err := decodeSnapshotRuns(t, flipped); err == nil {
				requireSameRecords(t, fmt.Sprintf("flip bit %d", flipAt), recs, got.recs)
			}
		}
	})
}

// blockAt returns the byte offset of a version-2 or version-3 image's
// k-th block (a version-3 image's dictionary is block 0).
func blockAt(img []byte, k int) int {
	off := snapshotHeaderSize
	for ; k > 0; k-- {
		off += headerSize + int(binary.LittleEndian.Uint32(img[off:]))
	}
	return off
}

// recrc recomputes the CRC of the block at byte off of img.
func recrc(img []byte, off int) []byte {
	body := img[off+headerSize : off+headerSize+int(binary.LittleEndian.Uint32(img[off:]))]
	binary.LittleEndian.PutUint32(img[off+4:], crc32.ChecksumIEEE(body))
	return img
}

// readPinned reads a file of a pinned WAL directory that internal/store's
// tests open and re-encode byte for byte.
func readPinned(f *testing.F, dir, name string) []byte {
	f.Helper()
	data, err := os.ReadFile(filepath.Join("..", "store", "testdata", dir, name))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// snapshotRuns collects the runs a snapshot decode replays, as a dataset
// with one product per run, their records, placed by Run.Frame (in file
// order), and their rater ordinals in the dictionary raters.
type snapshotRuns struct {
	t *testing.T
	dataset.Dataset
	recs   []Record
	raters *trust.Symbols
	ords   [][]uint32
}

func (s *snapshotRuns) Expect(string, int) {}

func (s *snapshotRuns) Replay(run Run) {
	if !run.Snapshot {
		s.t.Fatalf("snapshot run %d replayed as a log run", len(s.Products))
	}
	p, ords := dataset.Product{ID: run.Product}, []uint32(nil)
	i := 0
	run.Each(func(r Record) {
		if r.Product != run.Product {
			s.t.Fatalf("run of %q replayed a record of %q", run.Product, r.Product)
		}
		o, _, _ := run.At(i)
		p.Ratings, ords = append(p.Ratings, dataset.Rating{Day: r.Day, Value: r.Value, Rater: r.Rater}), append(ords, o)
		f := run.Frame(i)
		if f < len(s.recs) && s.recs[f] != (Record{}) || i > 0 && f <= run.Frame(i-1) {
			s.t.Fatalf("run of %q numbers its record %d as frame %d, out of order or taken", run.Product, i, f)
		}
		s.recs = append(s.recs, make([]Record, max(0, f+1-len(s.recs)))...)
		s.recs[f] = r
		i++
	})
	s.Products, s.ords = append(s.Products, p), append(s.ords, ords)
}

// runsOf groups records into runs: one product per stretch of records
// naming one product.
func runsOf(recs []Record) *snapshotRuns {
	s := &snapshotRuns{recs: recs}
	for i, r := range recs {
		if i == 0 || r.Product != recs[i-1].Product {
			s.Products = append(s.Products, dataset.Product{ID: r.Product})
		}
		p := &s.Products[len(s.Products)-1]
		p.Ratings = append(p.Ratings, dataset.Rating{Day: r.Day, Value: r.Value, Rater: r.Rater})
	}
	return s
}

// decodeSnapshotRuns decodes a snapshot image, collecting the runs it
// replays, each of which must be flagged as the checkpoint's; on success
// their records must number the count decodeSnapshot returns.
func decodeSnapshotRuns(t *testing.T, data []byte) (*snapshotRuns, error) {
	t.Helper()
	runs := &snapshotRuns{t: t}
	d := &runDecoder{rp: runs, dict: trust.NewSymbols(0)}
	n, err := decodeSnapshot(bytes.NewReader(data), int64(len(data)), d)
	if err == nil && n != len(runs.recs) {
		t.Fatalf("decodeSnapshot counted %d records and replayed %d", n, len(runs.recs))
	}
	runs.raters = d.dict
	return runs, err
}

// encodeV3 encodes d as a snapshot image, its raters interned in
// first-seen order.
func encodeV3(t testing.TB, d *dataset.Dataset) []byte {
	t.Helper()
	img, err := encodeSnapshot(Interned(d))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return img
}

// encodeV2 encodes d as a version-2 snapshot image, which this package
// reads but no longer writes: the header, then per product with ratings a
// block of its product ID, N, N u16 rater ID lengths, the rater IDs, N
// value bits and N day bits.
func encodeV2(t testing.TB, d *dataset.Dataset) []byte {
	t.Helper()
	le, count := binary.LittleEndian, 0
	for _, p := range d.Products {
		count += len(p.Ratings)
	}
	buf := le.AppendUint64(le.AppendUint32([]byte(snapshotMagic), 2), uint64(count))
	for _, p := range d.Products {
		if len(p.Ratings) == 0 {
			continue
		}
		start := len(buf)
		buf = append(buf, make([]byte, headerSize)...)
		buf = append(le.AppendUint16(buf, uint16(len(p.ID))), p.ID...)
		buf = le.AppendUint32(buf, uint32(len(p.Ratings)))
		for _, r := range p.Ratings {
			buf = le.AppendUint16(buf, uint16(len(r.Rater)))
		}
		for _, r := range p.Ratings {
			buf = append(buf, r.Rater...)
		}
		for _, r := range p.Ratings {
			buf = le.AppendUint64(buf, math.Float64bits(r.Value))
		}
		for _, r := range p.Ratings {
			buf = le.AppendUint64(buf, math.Float64bits(r.Day))
		}
		buf = closeBlock(buf, start)
	}
	return buf
}

// appendV1Header appends the header of a version-1 snapshot holding
// count records.
func appendV1Header(buf []byte, count int) []byte {
	buf = append(buf, snapshotMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, 1)
	return binary.LittleEndian.AppendUint64(buf, uint64(count))
}

// encodeV1 encodes recs as a version-1 snapshot image: the header, then
// one log frame per record.
func encodeV1(t *testing.T, recs []Record) []byte {
	t.Helper()
	buf := appendV1Header(nil, len(recs))
	for _, r := range recs {
		var err error
		if buf, err = appendRecord(buf, r); err != nil {
			t.Fatalf("encode %+v: %v", r, err)
		}
	}
	return buf
}

// requireSameRecords compares record lists with requireSameRecord.
func requireSameRecords(t *testing.T, label string, want, got []Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		requireSameRecord(t, fmt.Sprintf("%s record %d", label, i), want[i], got[i])
	}
}

// FuzzManifest drives ReadManifest with arbitrary wal-manifest.json bytes —
// the file a reopen trusts for the shard count and routing hash. The
// properties under test:
//
//  1. ReadManifest never panics, and it accepts a manifest exactly when the
//     bytes decode as JSON with Version == ManifestVersion and Shards >= 1.
//  2. An accepted manifest written back with WriteManifest reads back
//     equal.
func FuzzManifest(f *testing.F) {
	f.Add([]byte(`{"version":1,"shards":4,"hash":"fnv1a64"}`))
	f.Add([]byte(`{"version":2,"shards":4,"hash":"fnv1a64"}`))
	f.Add([]byte(`{"version":1,"shards":0}`))
	f.Add([]byte(`{"version":1,"shards":-3,"hash":"\u00ff"}`))
	f.Add([]byte(`{"version":1,"shards":1e400}`))
	f.Add([]byte(`not json`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		fsys, err := OSDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(fsys)

		// (1) Acceptance is exactly the documented predicate.
		var want Manifest
		valid := json.Unmarshal(raw, &want) == nil && want.Version == ManifestVersion && want.Shards >= 1
		if (err == nil) != valid {
			t.Fatalf("ReadManifest(%q) err = %v, want accepted = %v", raw, err, valid)
		}
		if err != nil {
			if m != nil {
				t.Fatalf("rejected manifest returned non-nil %+v", *m)
			}
			return
		}
		if m == nil || *m != want {
			t.Fatalf("ReadManifest(%q) = %+v, want %+v", raw, m, want)
		}

		// (2) Write-back round trip.
		if err := WriteManifest(fsys, *m); err != nil {
			t.Fatalf("WriteManifest(%+v): %v", *m, err)
		}
		back, err := ReadManifest(fsys)
		if err != nil {
			t.Fatalf("re-read of written manifest %+v: %v", *m, err)
		}
		if back == nil || *back != *m {
			t.Fatalf("round trip: wrote %+v, read back %+v", *m, back)
		}
	})
}

// decodeRecord decodes the frame at the front of data as a Record, like
// decodeFrame.
func decodeRecord(data []byte) (Record, int, bool) {
	_, n, ok := decodeFrame(data)
	if !ok {
		return Record{}, 0, false
	}
	product, rater, tail, _ := splitPayload(data[headerSize:n])
	return Record{
		Product:          string(product),
		Rater:            string(rater),
		Value:            math.Float64frombits(binary.LittleEndian.Uint64(tail)),
		Day:              math.Float64frombits(binary.LittleEndian.Uint64(tail[8:])),
		ReceivedUnixNano: int64(binary.LittleEndian.Uint64(tail[16:])),
	}, n, true
}

// scanRecords decodes records from the front of data until the first torn
// or corrupt frame, like readLog's scan.
func scanRecords(data []byte) []Record {
	var out []Record
	off := 0
	for off < len(data) {
		r, n, ok := decodeRecord(data[off:])
		if !ok {
			break
		}
		out = append(out, r)
		off += n
	}
	return out
}

// deriveRecords builds up to 8 valid records from fuzz bytes, covering
// empty and non-UTF-8 IDs and arbitrary float bit patterns.
func deriveRecords(raw []byte) []Record {
	var out []Record
	for i := 0; i+16 <= len(raw) && len(out) < 8; i += 16 {
		c := raw[i : i+16]
		out = append(out, Record{
			Product:          string(c[0 : 0+int(c[1])%3]),
			Rater:            string(c[2 : 2+int(c[3])%4]),
			Value:            math.Float64frombits(binary.LittleEndian.Uint64(c[4:12])),
			Day:              float64(binary.LittleEndian.Uint16(c[12:14])),
			ReceivedUnixNano: int64(c[14])<<8 | int64(c[15]),
		})
	}
	return out
}

// requireSameRecord compares records bit-exactly (NaN-valued floats
// included — recovery must not rewrite even a broken payload value).
func requireSameRecord(t *testing.T, label string, want, got Record) {
	t.Helper()
	if want.Product != got.Product || want.Rater != got.Rater ||
		math.Float64bits(want.Value) != math.Float64bits(got.Value) ||
		math.Float64bits(want.Day) != math.Float64bits(got.Day) ||
		want.ReceivedUnixNano != got.ReceivedUnixNano {
		t.Fatalf("%s: record %+v != %+v", label, got, want)
	}
}
