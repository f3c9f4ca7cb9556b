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
// place. It returns the frame's payload, the record's product and rater
// bytes (all aliasing data) and the number of bytes consumed, or ok=false
// when data holds no complete, checksum-valid record at its front (a
// torn or corrupt tail). payloadTail decodes the other fields.
func decodeFrame(data []byte) (payload, product, rater []byte, n int, ok bool) {
	if len(data) < headerSize {
		return nil, nil, nil, 0, false
	}
	payloadLen := int(binary.LittleEndian.Uint32(data))
	if payloadLen > maxRecordSize || len(data) < headerSize+payloadLen {
		return nil, nil, nil, 0, false
	}
	payload = data[headerSize : headerSize+payloadLen]
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
	return payload, product, rest[:rLen], headerSize + payloadLen, true
}

// payloadTail sets r's value, day and receipt time from the last 24
// bytes of a checked payload, where the format puts them.
func payloadTail(payload []byte, r Record) Record {
	tail := payload[len(payload)-24:]
	r.Value = math.Float64frombits(binary.LittleEndian.Uint64(tail))
	r.Day = math.Float64frombits(binary.LittleEndian.Uint64(tail[8:]))
	r.ReceivedUnixNano = int64(binary.LittleEndian.Uint64(tail[16:]))
	return r
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

// runDecoder replays the frames Open decodes to a Replayer, run by run.
// A run's product ID is looked up once in ids, which hands out one
// string per distinct product, and its rater IDs become one string: a
// file names a handful of products and thousands of raters, and each
// copy would be an allocation the replay keeps alive. raters is scratch
// for a run's rater bytes, reused from run to run.
type runDecoder struct {
	rp     Replayer
	ids    map[string]string
	raters []byte
}

// replay checks up to max frames at the front of data and replays them,
// flagged snapshot, one Run per stretch of frames naming one product. It
// stops at the first frame that does not decode and returns the bytes
// and the frames it consumed.
func (d *runDecoder) replay(data []byte, max uint64, snapshot bool) (off int, count uint64) {
	run := Run{Snapshot: snapshot}
	start := 0
	for ; count < max; count++ {
		_, product, rater, n, ok := decodeFrame(data[off:])
		if !ok {
			break
		}
		if run.n > 0 && string(product) != run.Product {
			d.flush(&run, data[start:off])
			start = off
		}
		if run.n == 0 {
			id, ok := d.ids[string(product)]
			if !ok {
				id = string(product)
				d.ids[id] = id
			}
			run.Product = id
		}
		d.raters = append(d.raters, rater...)
		run.n++
		off += n
	}
	d.flush(&run, data[start:off])
	return off, count
}

// flush replays run, whose frames are frames, if it holds any record, and
// empties it.
func (d *runDecoder) flush(run *Run, frames []byte) {
	if run.n == 0 {
		return
	}
	run.frames, run.raters = frames, string(d.raters)
	d.rp.Replay(*run)
	run.n, d.raters = 0, d.raters[:0]
}

// eachPayload calls f with the payload of each frame of frames, which
// decodeFrame has checked.
func eachPayload(frames []byte, f func(payload []byte)) {
	for off := 0; off < len(frames); {
		l := int(binary.LittleEndian.Uint32(frames[off:]))
		f(frames[off+headerSize : off+headerSize+l])
		off += headerSize + l
	}
}
