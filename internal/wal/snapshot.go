package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/dataset"
)

// Snapshot image (version 1): a 16-byte header
//
//	[4]byte magic "RSNP"
//	u32     little-endian format version (snapshotVersion)
//	u64     little-endian record count
//
// followed by exactly that many records in the log's own framing
// (appendRecord), product by product in series order. Snapshot records
// carry ReceivedUnixNano = 0 and no Unfair flag: recovery reads neither.
//
// Unlike the log, a snapshot is fsynced before it is renamed into place,
// so it is never torn. A bad frame, a short tail, a count that disagrees
// with the frames or trailing bytes are corruption: Open fails rather than
// recover a shorter history.
//
// A file that starts with '{' is a dataset JSON checkpoint written by
// builds before the binary format. It is not read: it fails as corrupt,
// naming the format.
const (
	snapshotMagic      = "RSNP"
	snapshotVersion    = 1
	snapshotHeaderSize = 16
	// minFrameSize is the smallest encoded record: the frame header plus a
	// payload with empty IDs. It bounds a header's count by the image size.
	minFrameSize = headerSize + 2 + 2 + 24
)

// ErrCorruptSnapshot is wrapped by the error Open returns for a published
// snapshot that does not decode.
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

// appendSnapshotHeader appends the header of a snapshot holding count
// records.
func appendSnapshotHeader(buf []byte, count int) []byte {
	buf = append(buf, snapshotMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, snapshotVersion)
	return binary.LittleEndian.AppendUint64(buf, uint64(count))
}

// encodeSnapshot encodes every rating of d as one snapshot image, sized
// exactly in one allocation.
func encodeSnapshot(d *dataset.Dataset) ([]byte, error) {
	count, size := 0, snapshotHeaderSize
	for _, p := range d.Products {
		count += len(p.Ratings)
		for _, r := range p.Ratings {
			size += minFrameSize + len(p.ID) + len(r.Rater)
		}
	}
	buf := appendSnapshotHeader(make([]byte, 0, size), count)
	for _, p := range d.Products {
		for _, r := range p.Ratings {
			var err error
			if buf, err = appendRecord(buf, Record{Product: p.ID, Rater: r.Rater, Value: r.Value, Day: r.Day}); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// decodeSnapshot decodes a binary snapshot image in place, replaying its
// records through d run by run, and returns the record count. It builds
// no slice of the snapshot's records (see readImage). Any deviation from
// the format is an error wrapping ErrCorruptSnapshot, which can come
// after records were replayed (see Replayer).
func decodeSnapshot(data []byte, d *runDecoder) (int, error) {
	if len(data) > 0 && data[0] == '{' {
		return 0, fmt.Errorf("%w: a JSON checkpoint from a build before the binary snapshot format", ErrCorruptSnapshot)
	}
	if len(data) < snapshotHeaderSize {
		return 0, fmt.Errorf("%w: %d-byte header", ErrCorruptSnapshot, len(data))
	}
	if string(data[:4]) != snapshotMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrCorruptSnapshot, data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != snapshotVersion {
		return 0, fmt.Errorf("%w: unknown version %d", ErrCorruptSnapshot, v)
	}
	count := binary.LittleEndian.Uint64(data[8:])
	body := data[snapshotHeaderSize:]
	if count > uint64(len(body)/minFrameSize) {
		return 0, fmt.Errorf("%w: %d records cannot fit in %d bytes", ErrCorruptSnapshot, count, len(body))
	}
	off, n := d.replay(body, count, true)
	if n != count {
		return 0, fmt.Errorf("%w: record %d of %d at byte %d", ErrCorruptSnapshot, n, count, snapshotHeaderSize+off)
	}
	if off != len(body) {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrCorruptSnapshot, len(body)-off)
	}
	return int(count), nil
}
