package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
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

	f.Fuzz(func(t *testing.T, raw []byte, cut uint16, flip uint32) {
		// (1) Arbitrary bytes: scan to the end without panicking; accepted
		// frames must round-trip byte-for-byte.
		off := 0
		for off < len(raw) {
			r, n, ok := decodeRecord(raw[off:], nil)
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
// bit-flipped images. A published snapshot is never torn, so the contract
// differs from the log's (DESIGN.md §7):
//
//  1. decodeSnapshot never panics on arbitrary bytes, and an image it
//     accepts re-encodes (header plus appendRecord frames) to the
//     identical bytes: the format is canonical, and a JSON checkpoint
//     from an earlier build is never accepted.
//  2. Cutting an encoded image at any byte short of its end is rejected.
//  3. Flipping any single bit is rejected or decodes to exactly the
//     encoded records: a damaged snapshot never yields a shorter or
//     different history.
func FuzzSnapshotDecode(f *testing.F) {
	var seed []byte
	seed = appendSnapshotHeader(seed, 2)
	seed, _ = appendRecord(seed, Record{Product: "p0", Rater: "alice", Value: 4.5, Day: 3})
	seed, _ = appendRecord(seed, Record{Product: "p1", Rater: "bob", Value: 1, Day: 61})
	f.Add(seed, uint16(len(seed)-1), uint32(5))
	f.Add(appendSnapshotHeader(nil, 0), uint16(3), uint32(70))
	f.Add([]byte(`{"horizonDays":90,"products":[{"id":"tv0","ratings":[{"day":1,"value":4,"rater":"a"}]}]}`), uint16(9), uint32(1))
	f.Add([]byte("RSNP\x02\x00\x00\x00"), uint16(0), uint32(0))
	f.Add([]byte("not a snapshot"), uint16(7), uint32(13))

	f.Fuzz(func(t *testing.T, raw []byte, cut uint16, flip uint32) {
		// (1) Arbitrary bytes.
		if recs, err := decodeSnapshotRecords(t, raw, nil); err == nil {
			if re := encodeRecords(t, recs); !bytes.Equal(re, raw) {
				t.Fatalf("accepted snapshot is not canonical: %x re-encodes to %x", raw, re)
			}
		}

		// Encode a known-good image from the fuzz input (possibly empty).
		recs := deriveRecords(raw)
		img := encodeRecords(t, recs)
		got, err := decodeSnapshotRecords(t, img, nil)
		if err != nil {
			t.Fatalf("encoded snapshot rejected: %v", err)
		}
		requireSameRecords(t, "round trip", recs, got)

		// (2) Every cut short of the end is rejected.
		cutAt := int(cut) % len(img)
		if got, err := decodeSnapshotRecords(t, img[:cutAt], nil); err == nil {
			t.Fatalf("snapshot cut at %d of %d accepted with %d records", cutAt, len(img), len(got))
		}

		// (3) A flipped bit is rejected or changes nothing.
		flipAt := int(flip) % (len(img) * 8)
		flipped := bytes.Clone(img)
		flipped[flipAt/8] ^= 1 << (flipAt % 8)
		if got, err := decodeSnapshotRecords(t, flipped, newInterner()); err == nil {
			requireSameRecords(t, fmt.Sprintf("flip bit %d", flipAt), recs, got)
		}
	})
}

// decodeSnapshotRecords decodes a snapshot image, collecting the records
// it replays, each of which must be flagged as the checkpoint's; on
// success their number must be the count decodeSnapshot returns.
func decodeSnapshotRecords(t *testing.T, data []byte, ids *interner) ([]Record, error) {
	t.Helper()
	var recs []Record
	n, err := decodeSnapshot(data, ids, ReplayFunc(func(r Record, snapshot bool) {
		if !snapshot {
			t.Fatalf("snapshot record %d replayed as a log record", len(recs))
		}
		recs = append(recs, r)
	}))
	if err == nil && n != len(recs) {
		t.Fatalf("decodeSnapshot counted %d records and replayed %d", n, len(recs))
	}
	return recs, err
}

// encodeRecords encodes recs as a binary snapshot image.
func encodeRecords(t *testing.T, recs []Record) []byte {
	t.Helper()
	buf := appendSnapshotHeader(nil, len(recs))
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

// scanRecords decodes records from the front of data until the first torn
// or corrupt frame, like readLog's scan.
func scanRecords(data []byte) []Record {
	var out []Record
	off := 0
	for off < len(data) {
		r, n, ok := decodeRecord(data[off:], nil)
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
