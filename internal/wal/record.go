package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
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

// decodeFrame checks the frame at the front of data and splits it in
// place. It returns the record's product and rater bytes and the payload's
// last 24 bytes, which hold its value, day and receipt time (all aliasing
// data), and the number of bytes consumed, or ok=false when data holds no
// complete, checksum-valid record at its front (a torn or corrupt tail).
func decodeFrame(data []byte) (product, rater, tail []byte, n int, ok bool) {
	if len(data) < headerSize {
		return nil, nil, nil, 0, false
	}
	payloadLen := int(binary.LittleEndian.Uint32(data))
	if payloadLen > maxRecordSize || len(data) < headerSize+payloadLen {
		return nil, nil, nil, 0, false
	}
	payload := data[headerSize : headerSize+payloadLen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, nil, nil, 0, false
	}
	// Field lengths must tile the payload exactly.
	if payloadLen < 2 {
		return nil, nil, nil, 0, false
	}
	pLen := int(binary.LittleEndian.Uint16(payload))
	rest := payload[2:]
	if len(rest) < pLen+2 {
		return nil, nil, nil, 0, false
	}
	product = rest[:pLen]
	rest = rest[pLen:]
	rLen := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) != rLen+24 {
		return nil, nil, nil, 0, false
	}
	return product, rest[:rLen], rest[rLen:], headerSize + payloadLen, true
}

// scanFrames walks the frames at the front of an image from their length
// prefixes alone, without checksums, and calls expect with each frame's
// product ID bytes, skipping a frame too short to hold the ID it claims
// (it cannot decode). It stops at the first length that decodeFrame
// would reject as too short or too long or that runs past the image. The
// checked decode accepts at most these frames, so the calls bound it per
// product from above, and a corrupt image still yields at most one call
// per minFrameSize bytes.
func scanFrames(data []byte, expect func(product []byte)) {
	for off := 0; len(data)-off >= headerSize; {
		l := int(binary.LittleEndian.Uint32(data[off:]))
		if l < minFrameSize-headerSize || l > maxRecordSize || len(data)-off-headerSize < l {
			return
		}
		payload := data[off+headerSize : off+headerSize+l]
		if pLen := int(binary.LittleEndian.Uint16(payload)); pLen <= l-2 {
			expect(payload[2 : 2+pLen])
		}
		off += headerSize + l
	}
}

// runDecoder replays what Open decodes to a Replayer, run by run. A run's
// product ID is looked up once in ids, which hands out one string per
// distinct product, and its rater IDs become one string: a file names a
// handful of products and thousands of raters, and each copy would be an
// allocation the replay keeps alive. A log run's columns are gathered in
// raters … received, and a snapshot block is read into block: scratch,
// reused from run to run.
type runDecoder struct {
	rp                                          Replayer
	ids                                         map[string]string
	raters, lens, values, days, received, block []byte
}

// intern returns the string ids holds for product, adding it if new.
func (d *runDecoder) intern(product []byte) string {
	id, ok := d.ids[string(product)]
	if !ok {
		id = string(product)
		d.ids[id] = id
	}
	return id
}

// replay checks up to max frames at the front of data and replays them,
// flagged snapshot, one Run per stretch of frames naming one product. It
// stops at the first frame that does not decode and returns the bytes
// and the frames it consumed.
func (d *runDecoder) replay(data []byte, max uint64, snapshot bool) (off int, count uint64) {
	run := Run{Snapshot: snapshot}
	for ; count < max; count++ {
		product, rater, tail, n, ok := decodeFrame(data[off:])
		if !ok {
			break
		}
		if len(d.lens) > 0 && string(product) != run.Product {
			d.flush(&run)
		}
		if len(d.lens) == 0 {
			run.Product = d.intern(product)
		}
		d.raters = append(d.raters, rater...)
		d.lens = binary.LittleEndian.AppendUint16(d.lens, uint16(len(rater)))
		d.values = append(d.values, tail[:8]...)
		d.days = append(d.days, tail[8:16]...)
		d.received = append(d.received, tail[16:]...)
		off += n
	}
	d.flush(&run)
	return off, count
}

// flush replays the gathered columns as run, if they hold any record, and
// empties them.
func (d *runDecoder) flush(run *Run) {
	if len(d.lens) == 0 {
		return
	}
	run.raters, run.lens, run.values, run.days, run.received = string(d.raters), d.lens, d.values, d.days, d.received
	d.rp.Replay(*run)
	d.raters, d.lens, d.values, d.days, d.received = d.raters[:0], d.lens[:0], d.values[:0], d.days[:0], d.received[:0]
}
