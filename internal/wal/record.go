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

// decodeRecord parses one record from the front of data. It returns the
// record and the number of bytes consumed, or ok=false when data holds no
// complete, checksum-valid record at its front (a torn or corrupt tail).
// The product ID is interned in ids (which may be nil).
func decodeRecord(data []byte, ids *interner) (r Record, n int, ok bool) {
	if len(data) < headerSize {
		return Record{}, 0, false
	}
	payloadLen := int(binary.LittleEndian.Uint32(data))
	if payloadLen > maxRecordSize || len(data) < headerSize+payloadLen {
		return Record{}, 0, false
	}
	payload := data[headerSize : headerSize+payloadLen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:]) {
		return Record{}, 0, false
	}
	// Field lengths must tile the payload exactly.
	if payloadLen < 2 {
		return Record{}, 0, false
	}
	pLen := int(binary.LittleEndian.Uint16(payload))
	rest := payload[2:]
	if len(rest) < pLen+2 {
		return Record{}, 0, false
	}
	r.Product = ids.intern(rest[:pLen])
	rest = rest[pLen:]
	rLen := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) != rLen+24 {
		return Record{}, 0, false
	}
	r.Rater = string(rest[:rLen])
	rest = rest[rLen:]
	r.Value = math.Float64frombits(binary.LittleEndian.Uint64(rest))
	r.Day = math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))
	r.ReceivedUnixNano = int64(binary.LittleEndian.Uint64(rest[16:]))
	return r, headerSize + payloadLen, true
}

// scanFrames walks the frames at the front of an image from their length
// prefixes alone, without checksums, and calls expect with each frame's
// product ID bytes, skipping a frame too short to hold the ID it claims
// (it cannot decode). It stops at the first length that decodeRecord
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

// interner hands out one string per distinct product ID while files are
// decoded: a snapshot or log names a handful of products thousands of
// times, and each copy would be an allocation the replay keeps alive. A
// snapshot names each product in one run of records, so the last ID is
// kept aside and a run costs one map lookup. A nil interner copies every
// ID.
type interner struct {
	ids  map[string]string
	last string
}

func newInterner() *interner { return &interner{ids: map[string]string{}} }

func (in *interner) intern(b []byte) string {
	if in == nil {
		return string(b)
	}
	if string(b) == in.last {
		return in.last
	}
	s, ok := in.ids[string(b)]
	if !ok {
		s = string(b)
		in.ids[s] = s
	}
	in.last = s
	return s
}
