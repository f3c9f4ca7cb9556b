package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"slices"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/epoch"
)

// An engine image persists the memo plane's trust-free signals tiers
// (memo.go) across restarts, so a restored state's Resume runs only
// Decide, the folds and Eq. 7 (DESIGN.md §14, Warm restart). Layout,
// little-endian:
//
//	[4]byte magic "RENG" | u32 format version | u32 CRC32 (IEEE) of the payload
//
// The payload is the engine-key fingerprint and the horizon bits, then per
// product its ID, the length N of the series its entries were recorded
// against, the SHA-256 of those N ratings (seriesDigest; a collidable
// digest would let an attacker replay stale signals) and its entries:
// (epoch, prefix length, arcHi, detect.Signals), the final entry under
// epoch index = the period count. Slices are a u32 count, then their
// elements in encoding/binary's packed layout (imageCodec).
const (
	imageMagic      = "RENG"
	imageVersion    = 1
	imageHeaderSize = 12
	// The smallest encodings of a product (no entries) and of an entry
	// (empty slices) bound what a decoded count may claim (codeLen).
	minProductSize = 4 + 36 + 4
	minEntrySize   = 16 + 4 + 2*(4+4+4+16) + 4 + 4
)

type image struct {
	key     [32]byte
	horizon float64
	prods   []imageProduct
}

type imageProduct struct {
	id      string
	n       uint32
	digest  [32]byte
	entries []imageEntry
}

type imageEntry struct {
	entryHead
	sig detect.Signals
}

// entryHead is an entry's fixed-size part, coded in one binary call.
type entryHead struct {
	Epoch, N uint32
	ArcHi    float64
}

// Image encodes st's signals tiers, or returns nil when st holds no
// evaluation.
func (st *EvalState) Image() []byte {
	if len(st.checkpoints) == 0 {
		return nil
	}
	img := image{fingerprint(st.config), st.horizon, make([]imageProduct, len(st.prods))}
	var buf []byte
	for i := range st.prods {
		ps, ip := &st.prods[i], &img.prods[i]
		ip.id, ip.n = st.products[i], uint32(len(ps.series))
		ip.digest, buf = seriesDigest(ps.series, buf)
		for ep, ent := range ps.memo.epochs {
			if ent.valid {
				ip.entries = append(ip.entries, imageEntry{entryHead{uint32(ep), uint32(ent.prefixLen), ent.pre.arcHi}, ent.pre.sig})
			}
		}
		if f := &ps.memo.final; f.valid {
			ip.entries = append(ip.entries, imageEntry{entryHead{uint32(len(st.published)), uint32(f.n), f.pre.arcHi}, f.pre.sig})
		}
	}
	return img.encode()
}

// Restore binds st to d under e and seeds it with an image's signals
// tiers, so the next Resume reuses them. A product is restored only when
// the first N ratings of its series match the image's digest; then an
// epoch entry is kept only when [0, hi) still holds the ratings it was
// computed over, and the final entry only when the series is still N
// long, so every restored entry describes the current series. A restored
// entry is signals-only (its trust tier always misses) and a restored
// product starts with an empty carry. An image that does not decode, or
// was written under another engine key, horizon or product list, is an
// error and leaves st untouched. exact reports that every product was
// restored and still has exactly the series the image holds.
func (e *Engine) Restore(st *EvalState, d *dataset.Dataset, data []byte) (restored int, exact bool, err error) {
	img, err := decodeImage(data)
	if err != nil {
		return 0, false, err
	}
	key := e.key()
	switch {
	case img.key != fingerprint(key):
		return 0, false, errors.New("engine image: written under another engine configuration")
	case math.Float64bits(img.horizon) != math.Float64bits(d.HorizonDays):
		return 0, false, fmt.Errorf("engine image: horizon %v, want %v", img.horizon, d.HorizonDays)
	case !slices.EqualFunc(img.prods, d.Products, func(ip imageProduct, p dataset.Product) bool { return ip.id == p.ID }):
		return 0, false, errors.New("engine image: product list differs")
	}
	st.bind(d, key)
	exact = true
	var buf []byte
	for i, ip := range img.prods {
		p, ps, n := &d.Products[i], &st.prods[i], int(ip.n)
		var sum [32]byte
		if n <= len(p.Ratings) {
			sum, buf = seriesDigest(p.Ratings[:n], buf)
		}
		if p.Version == 0 || n > len(p.Ratings) || sum != ip.digest {
			exact = false
			continue
		}
		exact = exact && n == len(p.Ratings)
		ps.version, ps.series, ps.ords = p.Version, p.Ratings, st.reintern(p.Ratings, nil)
		ps.memo.epochs = make([]memoEntry, len(st.published))
		for _, ent := range ip.entries {
			pre := prefixSignals{ent.sig, ent.ArcHi}
			switch ep := int(ent.Epoch); {
			case ep < len(ps.memo.epochs):
				_, hi := epoch.PeriodInterval(ep, d.HorizonDays)
				if start, end := p.Ratings.BetweenIndex(0, hi); end-start == int(ent.N) && end <= n {
					ps.memo.epochs[ep] = memoEntry{valid: true, prefixLen: int(ent.N), pre: pre}
				}
			case ep == len(ps.memo.epochs) && int(ent.N) == len(p.Ratings):
				ps.memo.final = finalEntry{valid: true, n: len(p.Ratings), pre: pre}
			}
		}
		restored++
	}
	st.stats.restored.Add(uint64(restored))
	return restored, exact, nil
}

// fingerprint hashes the bits of every field of an engine key, by
// reflection, so a field added to the key is covered.
func fingerprint(k Engine) [32]byte {
	return sha256.Sum256(appendBits(nil, reflect.ValueOf(k)))
}

func appendBits(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendBits(b, v.Field(i))
		}
		return b
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	}
	return fmt.Appendf(b, "%v;", v)
}

// seriesDigest returns the SHA-256 of s's (Day bits, Value bits, rater)
// triples, hashed from one buffer, and the buffer for reuse.
func seriesDigest(s dataset.Series, buf []byte) ([32]byte, []byte) {
	buf = buf[:0]
	for _, r := range s {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Day))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Value))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Rater)))
		buf = append(buf, r.Rater...)
	}
	return sha256.Sum256(buf), buf
}

func (img *image) encode() []byte {
	c := imageCodec{}
	c.w.Write(make([]byte, imageHeaderSize))
	c.image(img)
	b := c.w.Bytes()
	copy(b, imageMagic)
	binary.LittleEndian.PutUint32(b[4:], imageVersion)
	binary.LittleEndian.PutUint32(b[8:], crc32.ChecksumIEEE(b[imageHeaderSize:]))
	return b
}

// decodeImage checks an image's framing and decodes its payload. Any
// deviation from the format, trailing bytes included, is an error.
func decodeImage(data []byte) (*image, error) {
	switch {
	case len(data) < imageHeaderSize || string(data[:4]) != imageMagic:
		return nil, errors.New("engine image: not an engine image")
	case binary.LittleEndian.Uint32(data[4:]) != imageVersion:
		return nil, fmt.Errorf("engine image: format version %d, want %d", binary.LittleEndian.Uint32(data[4:]), imageVersion)
	case crc32.ChecksumIEEE(data[imageHeaderSize:]) != binary.LittleEndian.Uint32(data[8:]):
		return nil, errors.New("engine image: checksum mismatch")
	}
	img := &image{}
	c := imageCodec{r: bytes.NewReader(data[imageHeaderSize:])}
	c.image(img)
	if c.err != nil || c.r.Len() != 0 {
		return nil, fmt.Errorf("engine image: malformed payload (%v, %d bytes left)", c.err, c.r.Len())
	}
	return img, nil
}

// imageCodec encodes a payload into w or, with r set, decodes one from r,
// by the same walk (image), so the two cannot disagree. The first error
// stops the walk.
type imageCodec struct {
	w   bytes.Buffer
	r   *bytes.Reader
	err error
}

// val codes a fixed-size value with encoding/binary.
func (c *imageCodec) val(v any) {
	switch {
	case c.err != nil:
	case c.r == nil:
		c.err = binary.Write(&c.w, binary.LittleEndian, v)
	default:
		c.err = binary.Read(c.r, binary.LittleEndian, v)
	}
}

// codeLen codes a slice's length, sizing the slice on decode. A length
// whose elements of at least size bytes each cannot fit in what is left
// is an error, so no input allocates more than its own size.
func codeLen[T any](c *imageCodec, s *[]T, size int) {
	n := uint32(len(*s))
	c.val(&n)
	if c.r != nil {
		if c.err == nil && int(n) > c.r.Len()/size {
			c.err = errors.New("count past the end")
		}
		if c.err != nil {
			n = 0
		}
		*s = make([]T, n)
	}
}

// codeFixed codes a slice of fixed-size elements of size bytes.
func codeFixed[T any](c *imageCodec, s *[]T, size int) {
	codeLen(c, s, size)
	c.val(*s)
}

func (c *imageCodec) image(img *image) {
	c.val(&img.key)
	c.val(&img.horizon)
	codeLen(c, &img.prods, minProductSize)
	for i := range img.prods {
		p := &img.prods[i]
		id := []byte(p.id)
		codeFixed(c, &id, 1)
		p.id = string(id)
		c.val(&p.n)
		c.val(&p.digest)
		codeLen(c, &p.entries, minEntrySize)
		for j := range p.entries {
			e := &p.entries[j]
			c.val(&e.entryHead)
			codeFixed(c, &e.sig.MC, 41)
			for _, a := range [2]*detect.ARCSignals{&e.sig.HARC, &e.sig.LARC} {
				band := int32(a.Band)
				c.val(&band)
				a.Band = detect.ARCBand(band)
				codeFixed(c, &a.PeakDays, 8)
				codeFixed(c, &a.Segments, 25)
				c.val(&a.ThresholdA)
				c.val(&a.ThresholdB)
			}
			codeFixed(c, &e.sig.HC, 16)
			codeFixed(c, &e.sig.ME, 16)
		}
	}
}
