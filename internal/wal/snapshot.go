package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/dataset"
	"repro/internal/trust"
)

// Snapshot image (version 3, DESIGN.md §7), all little-endian: a 16-byte
// header (magic "RSNP", u32 snapshotVersion, u64 record count), then
// blocks framed like a log record (u32 body length, u32 CRC32 (IEEE) of
// the body). Block 0 is the rater dictionary; then each product with
// ratings has one block (the dictionary and the columns as columns.go
// encodes them):
//
//	u16 len(product) | product bytes | u32 N (N ≥ 1) | N ratings' columns
//
// A snapshot is never torn (it is fsynced before its rename): one CRC per
// block checks it, and any damage is corruption, never a shorter history.
// Version 2 (no dictionary; a block holds N u16 rater ID lengths and the
// IDs back to back in place of the ordinals) and version 1 (the header,
// then log frames) are still read; a JSON checkpoint (first byte '{') of
// earlier builds fails as corrupt, naming the format.
const (
	snapshotMagic      = "RSNP"
	snapshotVersion    = 3
	snapshotHeaderSize = 16
	// blockRecordSize is a block's bytes per record (a version-2 block's
	// besides its rater ID).
	blockRecordSize   = 4 + 8 + 8
	v2BlockRecordSize = 2 + 8 + 8
)

// ErrCorruptSnapshot is wrapped by the error Open returns for a published
// snapshot that does not decode.
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

// encodeSnapshot encodes every rating of d, whose raters have the
// ordinals ords in the dictionary raters, as one snapshot image, sized
// exactly in one allocation.
func encodeSnapshot(d *dataset.Dataset, raters *trust.Symbols, ords [][]uint32) ([]byte, error) {
	count, size := 0, snapshotHeaderSize+headerSize+DictionarySize(raters)
	for i, p := range d.Products {
		if len(p.ID) > math.MaxUint16 || len(ords[i]) != len(p.Ratings) {
			return nil, fmt.Errorf("wal: product %d: %d-byte id, %d ordinals for %d ratings", i, len(p.ID), len(ords[i]), len(p.Ratings))
		}
		count += len(p.Ratings)
		size += headerSize + 2 + len(p.ID) + 4 + blockRecordSize*len(p.Ratings)
	}
	le := binary.LittleEndian
	buf := append(make([]byte, 0, size), snapshotMagic...)
	buf = le.AppendUint64(le.AppendUint32(buf, snapshotVersion), uint64(count))
	buf = AppendDictionary(append(buf, make([]byte, headerSize)...), raters)
	buf = closeBlock(buf, snapshotHeaderSize)
	for i, p := range d.Products {
		if len(p.Ratings) == 0 {
			continue
		}
		start := len(buf)
		buf = append(buf, make([]byte, headerSize)...)
		buf = append(le.AppendUint16(buf, uint16(len(p.ID))), p.ID...)
		buf = AppendColumns(le.AppendUint32(buf, uint32(len(p.Ratings))), ords[i], p.Ratings)
		buf = closeBlock(buf, start)
	}
	return buf, nil
}

// closeBlock fills in the body length and CRC of the block that starts
// at buf[start] and runs to the end of buf.
func closeBlock(buf []byte, start int) []byte {
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-headerSize))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(buf[start+headerSize:]))
	return buf
}

// decodeSnapshot decodes the size-byte snapshot image read from r,
// replaying its records through d run by run, and returns the record
// count. A version-3 or version-2 image is read block by block (blocks);
// a version-1 image is read whole and decoded by the log's frame
// decoder, which checks every frame before it replays any. Any deviation
// from the format is an error wrapping ErrCorruptSnapshot, which can come
// after runs were replayed (see Replayer).
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
	case v == 2 || v == snapshotVersion:
		return d.blocks(r, size, count, v)
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

// blocks reads the blocks of a version-v image that follow its header,
// from r, until the dictionary (version 3) is read and count records are
// replayed: one at a time into d.block, which grows only for a block
// larger than itself, each replayed as one run once its CRC and layout
// check.
func (d *runDecoder) blocks(r io.Reader, size int64, count uint64, v uint32) (int, error) {
	off, seen, dict := int64(snapshotHeaderSize), uint64(0), 0
	if v == snapshotVersion {
		dict = 1
	}
	for k := 0; k < dict || seen < count; k++ {
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
		body := d.block[:l]
		if _, err := io.ReadFull(r, body); err != nil {
			return 0, err
		}
		var run Run
		var err error
		switch {
		case crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(head[4:]):
			err = errors.New("CRC mismatch")
		case k < dict:
			var rest []byte
			if d.dict, rest, err = ParseDictionary(body, d.interns); err == nil && len(rest) != 0 {
				err = fmt.Errorf("%d trailing bytes after the dictionary", len(rest))
			}
		default:
			run, err = d.parseBlock(body, v)
		}
		if err == nil && uint64(run.Len()) > count-seen {
			err = fmt.Errorf("%d records pass the header's count of %d", run.Len(), count)
		}
		if err != nil {
			return 0, fmt.Errorf("%w: block %d at byte %d: %v", ErrCorruptSnapshot, k, off, err)
		}
		if k >= dict {
			run.first = int(seen)
			d.rp.Replay(run)
		}
		seen, off = seen+uint64(run.Len()), off+headerSize+l
	}
	if off != size {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrCorruptSnapshot, size-off)
	}
	return int(count), nil
}

// parseBlock splits a product block's body into the columns of a
// snapshot Run, aliasing body. A version-3 block's ordinals must each be
// below the dictionary's length; a version-2 block's rater IDs are
// interned into the dictionary.
func (d *runDecoder) parseBlock(body []byte, v uint32) (Run, error) {
	le := binary.LittleEndian
	if len(body) < 2 || len(body) < 2+int(le.Uint16(body))+4 {
		return Run{}, fmt.Errorf("%d-byte body too short for its product ID", len(body))
	}
	product := body[2 : 2+le.Uint16(body)]
	n, cols := int(le.Uint32(body[2+len(product):])), body[2+len(product)+4:]
	run := Run{Product: d.names[d.intern(product)], Snapshot: true, Raters: d.dict}
	if v == snapshotVersion {
		if n == 0 || len(cols) != blockRecordSize*n {
			return Run{}, fmt.Errorf("%d records do not tile %d bytes", n, len(cols))
		}
		var err error
		run.Columns, _, err = SplitColumns(cols, n, d.dict.Len())
		return run, err
	}
	if n == 0 || n > len(cols)/v2BlockRecordSize {
		return Run{}, fmt.Errorf("%d records in %d bytes", n, len(cols))
	}
	off, end := 2*n, len(cols)-16*n
	d.ords = d.ords[:0]
	for i := 0; i < n && off+int(le.Uint16(cols[2*i:])) <= end; i++ {
		d.ordinal(cols[off : off+int(le.Uint16(cols[2*i:]))])
		off += int(le.Uint16(cols[2*i:]))
	}
	if off != end || len(d.ords) != 4*n {
		return Run{}, fmt.Errorf("%d records do not tile %d bytes", n, len(cols))
	}
	run.Raters, run.Columns = d.dict, Columns{d.ords, cols[end : end+8*n], cols[end+8*n:]}
	return run, nil
}
