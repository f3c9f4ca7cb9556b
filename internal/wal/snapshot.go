package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/dataset"
)

// Snapshot image (version 2, DESIGN.md §7), all little-endian: a 16-byte
// header (magic "RSNP", u32 snapshotVersion, u64 record count), then per
// product with ratings one block framed like a log record (u32 body
// length, u32 CRC32 (IEEE) of the body) around the product's ratings as
// columns in series order:
//
//	u16 len(product) | product bytes | u32 N (N ≥ 1)
//	N u16 rater lengths | the N rater IDs back to back
//	N u64 IEEE-754 bits of Value | N u64 IEEE-754 bits of Day
//
// A snapshot is never torn (it is fsynced before its rename): one CRC per
// block checks it, and any damage is corruption, never a shorter history.
// A version-1 snapshot (the header, then log frames) is still read, by
// the log's frame decoder; a JSON checkpoint (first byte '{') of earlier
// builds fails as corrupt, naming the format.
const (
	snapshotMagic      = "RSNP"
	snapshotVersion    = 2
	snapshotHeaderSize = 16
	// blockRecordSize is a block's bytes per record besides its rater ID.
	blockRecordSize = 2 + 8 + 8
)

// ErrCorruptSnapshot is wrapped by the error Open returns for a published
// snapshot that does not decode.
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

// encodeSnapshot encodes every rating of d as one snapshot image, sized
// exactly in one allocation.
func encodeSnapshot(d *dataset.Dataset) ([]byte, error) {
	count, size := 0, snapshotHeaderSize
	for _, p := range d.Products {
		count += len(p.Ratings)
		size += headerSize + 2 + len(p.ID) + 4 + blockRecordSize*len(p.Ratings)
		for _, r := range p.Ratings {
			size += len(r.Rater)
		}
	}
	le := binary.LittleEndian
	buf := append(make([]byte, 0, size), snapshotMagic...)
	buf = le.AppendUint64(le.AppendUint32(buf, snapshotVersion), uint64(count))
	for _, p := range d.Products {
		if len(p.Ratings) == 0 {
			continue
		}
		start := len(buf)
		buf = append(buf, make([]byte, headerSize)...) // body length and CRC
		buf = append(le.AppendUint16(buf, uint16(len(p.ID))), p.ID...)
		buf = le.AppendUint32(buf, uint32(len(p.Ratings)))
		lens := len(buf)
		buf = append(buf, make([]byte, 2*len(p.Ratings))...)
		for j, r := range p.Ratings {
			if len(p.ID) > math.MaxUint16 || len(r.Rater) > math.MaxUint16 {
				return nil, fmt.Errorf("wal: id too long (product %d, rater %d bytes)", len(p.ID), len(r.Rater))
			}
			le.PutUint16(buf[lens+2*j:], uint16(len(r.Rater)))
			buf = append(buf, r.Rater...)
		}
		for _, r := range p.Ratings {
			buf = le.AppendUint64(buf, math.Float64bits(r.Value))
		}
		for _, r := range p.Ratings {
			buf = le.AppendUint64(buf, math.Float64bits(r.Day))
		}
		le.PutUint32(buf[start:], uint32(len(buf)-start-headerSize))
		le.PutUint32(buf[start+4:], crc32.ChecksumIEEE(buf[start+headerSize:]))
	}
	return buf, nil
}

// decodeSnapshot decodes the size-byte snapshot image read from r,
// replaying its records through d run by run, and returns the record
// count. A version-2 image is read block by block (blocks); a version-1
// image is read whole and decoded by the log's frame decoder, which
// checks every frame before it replays any. Any deviation from the
// format is an error wrapping ErrCorruptSnapshot, which can come after
// runs were replayed (see Replayer).
func decodeSnapshot(r io.Reader, size int64, d *runDecoder) (int, error) {
	var head [snapshotHeaderSize]byte
	if _, err := io.ReadFull(r, head[:min(size, snapshotHeaderSize)]); err != nil {
		return 0, err
	}
	count := binary.LittleEndian.Uint64(head[8:])
	switch v := binary.LittleEndian.Uint32(head[4:]); {
	case size > 0 && head[0] == '{':
		return 0, fmt.Errorf("%w: a JSON checkpoint from a build before the binary snapshot format", ErrCorruptSnapshot)
	case size < snapshotHeaderSize:
		return 0, fmt.Errorf("%w: %d-byte header", ErrCorruptSnapshot, size)
	case string(head[:4]) != snapshotMagic:
		return 0, fmt.Errorf("%w: bad magic %q", ErrCorruptSnapshot, head[:4])
	case v == snapshotVersion:
		return d.blocks(r, size, count)
	case v != 1:
		return 0, fmt.Errorf("%w: unknown version %d", ErrCorruptSnapshot, v)
	}
	body := make([]byte, size-snapshotHeaderSize)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, err
	}
	x := d.index(body, count)
	n, off := len(x.order), x.offs[len(x.order)]
	if uint64(n) != count {
		return 0, fmt.Errorf("%w: record %d of %d at byte %d", ErrCorruptSnapshot, n, count, snapshotHeaderSize+off)
	}
	if off != len(body) {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrCorruptSnapshot, len(body)-off)
	}
	d.replayIndex(body, x, true)
	return n, nil
}

// blocks reads the version-2 blocks that follow a size-byte image's
// header from r, until count records are replayed, one at a time into
// d.block, which grows only for a block larger than itself, and replays
// each as one run once its CRC and layout check.
func (d *runDecoder) blocks(r io.Reader, size int64, count uint64) (int, error) {
	off, seen := int64(snapshotHeaderSize), uint64(0)
	for k := 0; seen < count; k++ {
		var head [headerSize]byte
		if size-off < headerSize {
			return 0, fmt.Errorf("%w: block %d at byte %d: %d of %d records, then %d bytes", ErrCorruptSnapshot, k, off, seen, count, size-off)
		}
		if _, err := io.ReadFull(r, head[:]); err != nil {
			return 0, err
		}
		l := int64(binary.LittleEndian.Uint32(head[:]))
		if l > size-off-headerSize {
			return 0, fmt.Errorf("%w: block %d at byte %d: %d-byte body overruns the file", ErrCorruptSnapshot, k, off, l)
		}
		if int64(cap(d.block)) < l {
			d.block = make([]byte, l)
		}
		if _, err := io.ReadFull(r, d.block[:l]); err != nil {
			return 0, err
		}
		run, err := d.parseBlock(d.block[:l], binary.LittleEndian.Uint32(head[4:]))
		if err == nil && uint64(run.Len()) > count-seen {
			err = fmt.Errorf("%d records pass the header's count of %d", run.Len(), count)
		}
		if err != nil {
			return 0, fmt.Errorf("%w: block %d at byte %d: %v", ErrCorruptSnapshot, k, off, err)
		}
		run.first = int(seen)
		d.rp.Replay(run)
		seen, off = seen+uint64(run.Len()), off+headerSize+l
	}
	if off != size {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrCorruptSnapshot, size-off)
	}
	return int(count), nil
}

// parseBlock checks a block body against its CRC and splits it into the
// columns of a snapshot Run, aliasing body but for the rater string.
func (d *runDecoder) parseBlock(body []byte, crc uint32) (Run, error) {
	le := binary.LittleEndian
	if crc32.ChecksumIEEE(body) != crc {
		return Run{}, errors.New("CRC mismatch")
	}
	if len(body) < 2 || len(body) < 2+int(le.Uint16(body))+4 {
		return Run{}, fmt.Errorf("%d-byte body too short for its product ID", len(body))
	}
	product := body[2 : 2+le.Uint16(body)]
	n, cols := int(le.Uint32(body[2+len(product):])), body[2+len(product)+4:]
	if n == 0 || n > len(cols)/blockRecordSize {
		return Run{}, fmt.Errorf("%d records in %d bytes", n, len(cols))
	}
	raters := len(cols) - blockRecordSize*n
	for i := 0; i < 2*n; i += 2 {
		raters -= int(le.Uint16(cols[i:]))
	}
	if raters != 0 {
		return Run{}, fmt.Errorf("%d records do not tile %d bytes", n, len(cols))
	}
	raters = len(cols) - 16*n
	return Run{Product: d.names[d.intern(product)], Snapshot: true, raters: string(cols[2*n : raters]),
		lens: cols[:2*n], values: cols[raters : raters+8*n], days: cols[raters+8*n:]}, nil
}
