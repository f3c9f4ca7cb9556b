package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"repro/internal/trust"
)

// Record is one durably logged rating submission.
type Record struct {
	Product string
	Rater   string
	Value   float64
	Day     float64
	// ReceivedUnixNano is the wall-clock receipt time of the submission in
	// nanoseconds since the Unix epoch. It is operational metadata (audit,
	// retrospective collusion analysis); recovery does not interpret it.
	ReceivedUnixNano int64
}

// On-disk framing: every record is
//
//	u32 little-endian payload length
//	u32 little-endian CRC32 (IEEE) of the payload
//	payload
//
// and the payload is
//
//	u16 len(product) | product bytes
//	u16 len(rater)   | rater bytes
//	u64 IEEE-754 bits of Value
//	u64 IEEE-754 bits of Day
//	u64 ReceivedUnixNano (two's complement)
//
// all little-endian. A reader that hits a short header, a short payload, a
// length above maxRecordSize, or a CRC mismatch treats the record and
// everything after it as a torn tail.
const (
	headerSize = 8
	// minFrameSize is the smallest encoded record: the frame header plus a
	// payload with empty IDs.
	minFrameSize = headerSize + 2 + 2 + 24
	// maxRecordSize bounds a single payload. Product and rater IDs are
	// short strings; anything near this limit is corruption, not data.
	maxRecordSize = 1 << 16
)

func appendRecord(buf []byte, r Record) ([]byte, error) {
	if len(r.Product) > math.MaxUint16 || len(r.Rater) > math.MaxUint16 {
		return nil, fmt.Errorf("wal: id too long (product %d, rater %d bytes)", len(r.Product), len(r.Rater))
	}
	payloadLen := 2 + len(r.Product) + 2 + len(r.Rater) + 8 + 8 + 8
	if payloadLen > maxRecordSize {
		return nil, fmt.Errorf("wal: record payload %d bytes exceeds %d", payloadLen, maxRecordSize)
	}
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payloadLen))
	buf = append(buf, 0, 0, 0, 0) // CRC placeholder
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Product)))
	buf = append(buf, r.Product...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Rater)))
	buf = append(buf, r.Rater...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Value))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Day))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ReceivedUnixNano))
	crc := crc32.ChecksumIEEE(buf[start+headerSize:])
	binary.LittleEndian.PutUint32(buf[start+4:], crc)
	return buf, nil
}

// decodeFrame checks the frame at the front of data and returns its
// product ID bytes (aliasing data) and the number of bytes it spans, or
// ok=false when data holds no complete, checksum-valid record at its
// front whose fields tile its payload (a torn or corrupt tail).
func decodeFrame(data []byte) (product []byte, n int, ok bool) {
	if len(data) < headerSize {
		return nil, 0, false
	}
	payloadLen := int(binary.LittleEndian.Uint32(data))
	if payloadLen > maxRecordSize || len(data) < headerSize+payloadLen {
		return nil, 0, false
	}
	payload := data[headerSize : headerSize+payloadLen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, 0, false
	}
	product, _, _, ok = splitPayload(payload)
	return product, headerSize + payloadLen, ok
}

// splitPayload splits a record payload in place into its product and
// rater bytes and its last 24 bytes, which hold its value, day and
// receipt time, or returns ok=false when the field lengths do not tile
// the payload exactly.
func splitPayload(payload []byte) (product, rater, tail []byte, ok bool) {
	if len(payload) < 2 {
		return nil, nil, nil, false
	}
	pLen := int(binary.LittleEndian.Uint16(payload))
	rest := payload[2:]
	if len(rest) < pLen+2 {
		return nil, nil, nil, false
	}
	product, rest = rest[:pLen], rest[pLen:]
	rLen := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) != rLen+24 {
		return nil, nil, nil, false
	}
	return product, rest[:rLen], rest[rLen:], true
}

// runDecoder replays what Open decodes to a Replayer, run by run. A
// product ID is interned once as an ordinal into names, so a file that
// names a handful of products thousands of times allocates each ID once.
// A rater ID is interned into dict, the rater dictionary every run's
// ordinals index: a version-3 snapshot's, or empty, extended by the
// raters of the log and of older snapshots that it lacks. A log run's
// columns are gathered in ords … received, and a snapshot block is read
// into block: scratch, reused from run to run.
type runDecoder struct {
	rp    Replayer
	ids   map[string]int32
	names []string
	dict  *trust.Symbols
	// interns is set when the log holds frames, whose raters will be
	// interned: a snapshot's dictionary is then indexed as it is read.
	interns                             bool
	ords, values, days, received, block []byte
}

// intern returns product's ordinal, adding it to names if new.
func (d *runDecoder) intern(product []byte) int32 {
	k, ok := d.ids[string(product)]
	if !ok {
		if d.ids == nil {
			d.ids = map[string]int32{}
		}
		k = int32(len(d.names))
		d.names = append(d.names, string(product))
		d.ids[d.names[k]] = k
	}
	return k
}

// ordinal appends the ordinal of the rater ID rater to the run's column
// in d.ords, interning the ID when the dictionary lacks it.
func (d *runDecoder) ordinal(rater []byte) {
	o, ok := d.dict.Ordinal(rater)
	if !ok {
		d.dict, o = d.dict.Intern(string(rater))
	}
	d.ords = binary.LittleEndian.AppendUint32(d.ords, o)
}

// frameIndex holds the checksum-valid frames at the front of an image,
// grouped by product: frame f spans bytes offs[f] to offs[f+1], and the
// frames of the product with ordinal k are order[ends[k-1]:ends[k]]
// (from 0 for k = 0), by frame number.
type frameIndex struct {
	offs  []int
	ends  []int
	order []int32
}

// index checks up to max frames at the front of data, in order, up to
// the first that does not decode, and groups them by product, stably
// (a counting sort on the product ordinals).
func (d *runDecoder) index(data []byte, max uint64) frameIndex {
	// Sized for the most frames data can hold.
	most := min(uint64(len(data)/minFrameSize), max)
	x := frameIndex{offs: append(make([]int, 0, most+1), 0)}
	prods := make([]int32, 0, most)
	for off := 0; uint64(len(prods)) < max; {
		product, n, ok := decodeFrame(data[off:])
		if !ok {
			break
		}
		prods = append(prods, d.intern(product))
		off += n
		x.offs = append(x.offs, off)
	}
	// ends[k] counts product k's frames, then holds where they start,
	// and ends where they end once each frame is placed.
	x.ends = make([]int, len(d.names))
	for _, k := range prods {
		x.ends[k]++
	}
	for k, sum := 0, 0; k < len(x.ends); k++ {
		x.ends[k], sum = sum, sum+x.ends[k]
	}
	x.order = make([]int32, len(prods))
	for f, k := range prods {
		x.order[x.ends[k]] = int32(f)
		x.ends[k]++
	}
	return x
}

// replayIndex replays the frames x indexes in data, flagged snapshot,
// one Run per product, in ordinal order, each holding the product's
// frames in frame order.
func (d *runDecoder) replayIndex(data []byte, x frameIndex, snapshot bool) {
	most, start := 0, 0 // the scratch is sized once, for the longest run
	for _, end := range x.ends {
		most, start = max(most, end-start), end
	}
	d.ords, d.values, d.days, d.received = slices.Grow(d.ords[:0], 4*most), slices.Grow(d.values, 8*most), slices.Grow(d.days, 8*most), slices.Grow(d.received, 8*most)
	start = 0
	for k, end := range x.ends {
		frames := x.order[start:end]
		start = end
		if len(frames) == 0 {
			continue
		}
		for _, f := range frames {
			_, rater, tail, _ := splitPayload(data[x.offs[f]+headerSize : x.offs[f+1]])
			d.ordinal(rater)
			d.values = append(d.values, tail[:8]...)
			d.days = append(d.days, tail[8:16]...)
			d.received = append(d.received, tail[16:]...)
		}
		run := Run{Product: d.names[k], Snapshot: snapshot, Raters: d.dict, frames: frames,
			ords: d.ords, values: d.values, days: d.days, received: d.received}
		d.rp.Replay(run)
		d.ords, d.values, d.days, d.received = d.ords[:0], d.values[:0], d.days[:0], d.received[:0]
	}
}
