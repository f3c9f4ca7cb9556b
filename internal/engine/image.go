package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/epoch"
	"repro/internal/trust"
	"repro/internal/wal"
)

// An engine image persists the memo plane's trust-free signals tiers
// (memo.go) across restarts, so a restored state's Resume runs only
// Decide, the folds and Eq. 7; and, when it was taken from a complete
// evaluation, the decisions of that evaluation, so restoring it into the
// same ratings leaves a Resume that runs none of them (DESIGN.md §14, Warm
// restart). Layout, little-endian:
//
//	[4]byte magic "RENG" | u32 format version | u32 CRC32 (IEEE) of the payload
//
// The payload is the engine-key fingerprint and the horizon bits, then
// four sections. The dictionary is the writer's rater names in ordinal
// order, each once, and the ratings section is a u32 product count and
// per product its ID, the length N of the series its entries were
// recorded against and those N ratings as columns (ordinals below the
// dictionary's K | value bits | day bits): the snapshot's encoding,
// written and parsed by internal/wal. The signals section holds per
// product its entries: (epoch, prefix length, arcHi, detect.Signals),
// the final entry under epoch index = the period count. Then comes the
// decisions flag, a bool, and, when it is set, per product: its causal
// marks and its final marks, N bits each, then its final scores and its
// published scores, one f64 per period each. Slices are a u32 count,
// then their elements field after field with no padding; marks and score
// rows, whose counts follow from N and the horizon, are their elements
// alone (imageCodec). Trust is rebuilt from the marks (restoreDecisions).
const (
	imageMagic      = "RENG"
	imageVersion    = 4
	imageHeaderSize = 12
	// The smallest encodings of a product (an empty ID and series, no
	// entries) and of an entry (empty slices) bound what a decoded count
	// may claim (codeLen).
	minProductSize = 4 + 4 + 4
	minEntrySize   = 16 + 4 + 2*(4+4+4+16) + 4 + 4
)

type image struct {
	key     [32]byte
	horizon float64
	raters  *trust.Symbols // the dictionary
	prods   []imageProduct
	decided bool // the decisions section is present
}

type imageProduct struct {
	id string
	n  uint32
	// The N ratings: the encoder writes them from src, the state's
	// product (its series and ordinal column); the decoder keeps cols, a
	// view of the payload's.
	src     *productState
	cols    wal.Columns
	entries []imageEntry
	// The decisions: the causal column, and the final entry's marks and
	// scores; published[e] is the product's period-e published score.
	causal, final     []bool
	scores, published []float64
}

// matched reports whether the first N ratings of s equal the decoded
// image's, rating by rating: the Day and Value bits are the columns' and
// the Rater is the dictionary's name of the ordinal. If so, it returns
// their ordinal column, with room for the rest of s.
func (ip *imageProduct) matched(s dataset.Series, raters *trust.Symbols) ([]uint32, bool) {
	if len(s) < ip.cols.Len() {
		return nil, false
	}
	ords := make([]uint32, ip.cols.Len(), len(s))
	for j := range ords {
		o, value, day := ip.cols.At(j)
		if math.Float64bits(s[j].Day) != math.Float64bits(day) || math.Float64bits(s[j].Value) != math.Float64bits(value) || raters.Name(o) != s[j].Rater {
			return nil, false
		}
		ords[j] = o
	}
	return ords, true
}

// imageEntry is a signals tier: its epoch (the period count for the
// final entry), the length of its prefix and its signals.
type imageEntry struct {
	epoch, n uint32
	pre      prefixSignals
}

// Image encodes st's signals tiers, and its decisions when st holds a
// complete evaluation: every epoch checkpointed and every product's final
// entry decided under the last checkpoint. It returns nil when st holds no
// evaluation or ctx is cancelled first.
func (st *EvalState) Image(ctx context.Context) []byte {
	if len(st.checkpoints) == 0 {
		return nil
	}
	img := image{key: fingerprint(st.config), horizon: st.horizon, raters: st.syms, prods: make([]imageProduct, len(st.prods))}
	last, n := st.checkpoints[len(st.checkpoints)-1], epoch.Periods(st.horizon)
	img.decided = len(st.checkpoints) == n+1
	for i := range st.prods {
		if ctx.Err() != nil {
			return nil
		}
		ps, ip, f := &st.prods[i], &img.prods[i], &st.prods[i].memo.final
		img.decided = img.decided && f.valid && f.under == last
		ip.id, ip.n, ip.src = st.products[i], uint32(len(ps.series)), ps
		ip.causal, ip.final, ip.scores, ip.published = ps.causal, f.marks, f.scores, ps.published
		for ep, ent := range ps.memo.epochs {
			if ent.valid {
				ip.entries = append(ip.entries, imageEntry{uint32(ep), uint32(ent.prefixLen), ent.pre})
			}
		}
		if f.valid {
			ip.entries = append(ip.entries, imageEntry{uint32(n), uint32(f.n), f.pre})
		}
	}
	return img.encode() // the decisions only when every product is decided
}

// Restore binds st to d under e and seeds it with an image's signals
// tiers, so the next Resume reuses them. A product is restored only when
// the first N ratings of its series equal the image's columns exactly
// (imageProduct.matched); then an epoch entry is kept only when [0, hi)
// still holds the ratings it was computed over, and the final entry only
// when the series is still N long, so every restored entry describes the
// current series. A restored product starts with an empty carry. exact
// reports that every product was restored and still has exactly the
// series the image holds, and that the image holds decisions, which are
// then restored too (restoreDecisions): the next Resume replays the
// image's evaluation from the memo. Short of exact, every restored entry
// is signals-only (its trust tier always misses). An image that does not
// decode, was written under another engine key, horizon or product list,
// or whose dictionary names a rater twice, is an error and leaves st
// untouched. A ctx cancelled before the restore is done is returned as the
// error, with st reset, so the next Resume evaluates cold. The symbol
// table is the dictionary and a restored product's ordinal column the
// image's, so only ratings past N are interned (the next Resume interns
// the products not restored).
func (e *Engine) Restore(ctx context.Context, st *EvalState, d *dataset.Dataset, data []byte) (restored int, exact bool, err error) {
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
	st.syms = img.raters
	exact = true
	for i := range img.prods {
		if err := ctx.Err(); err != nil {
			st.Reset()
			return 0, false, err
		}
		ip, p, ps, n := &img.prods[i], &d.Products[i], &st.prods[i], int(img.prods[i].n)
		ords, ok := ip.matched(p.Ratings, img.raters)
		if !ok {
			exact = false
			continue
		}
		exact = exact && n == len(p.Ratings)
		ps.series, ps.ords = p.Ratings, st.reintern(p.Ratings, ords)
		if ps.causal = ip.causal; len(ps.causal) != len(p.Ratings) {
			ps.causal = make([]bool, len(p.Ratings)) // every epoch re-runs and writes it
		}
		for _, ent := range ip.entries {
			switch ep := int(ent.epoch); {
			case ep < len(ps.memo.epochs):
				_, hi := epoch.PeriodInterval(ep, d.HorizonDays)
				if start, end := p.Ratings.BetweenIndex(0, hi); end-start == int(ent.n) && end <= n {
					ps.memo.epochs[ep] = memoEntry{valid: true, prefixLen: int(ent.n), pre: ent.pre}
				}
			case ep == len(ps.memo.epochs) && int(ent.n) == len(p.Ratings):
				ps.memo.final = finalEntry{valid: true, n: len(p.Ratings), pre: ent.pre}
			}
		}
		restored++
	}
	if exact = exact && img.decided; exact {
		st.restoreDecisions(img)
	}
	st.stats.restored.Add(uint64(restored))
	return restored, exact, nil
}

// restoreDecisions completes an exact restore from a decided image. The
// causal columns and the ordinal columns already are the image's, so
// folding them epoch by epoch rebuilds checkpoints 1…n (fold, as
// Resume folds, with no Decide); the published rows are the image's. Every
// restored epoch entry was decided under its epoch's checkpoint, and every
// final entry gets the image's marks and scores under the last one, so
// the next Resume replays the whole evaluation from the memo.
func (st *EvalState) restoreDecisions(img *image) {
	n := epoch.Periods(st.horizon)
	for ep := 0; ep < n; ep++ {
		st.checkpoints = append(st.checkpoints, st.fold(ep))
	}
	for i := range st.prods {
		ps, ip := &st.prods[i], &img.prods[i]
		ps.published = ip.published
		for ep := range ps.memo.epochs {
			if ps.memo.epochs[ep].valid {
				ps.memo.epochs[ep].under = st.checkpoints[ep]
			}
		}
		if f := &ps.memo.final; f.valid {
			f.under, f.marks, f.scores = st.checkpoints[n], ip.final, ip.scores
		}
	}
}

// lastPrint caches the last key's fingerprint: a process restores and
// writes its images under one key.
var lastPrint atomic.Pointer[keyPrint]

type keyPrint struct {
	key Engine
	sum [32]byte
}

// fingerprint hashes every field of an engine key, by reflection, so a
// field added to the key is covered: a float by its bits (a zero as +0,
// so keys that compare equal, and so share a memo, hash alike), any
// other field as fmt prints it.
func fingerprint(k Engine) [32]byte {
	if p := lastPrint.Load(); p != nil && p.key == k {
		return p.sum
	}
	p := &keyPrint{k, sha256.Sum256(appendBits(nil, reflect.ValueOf(k)))}
	lastPrint.Store(p)
	return p.sum
}

func appendBits(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendBits(b, v.Field(i))
		}
		return b
	case reflect.Float64:
		bits := math.Float64bits(v.Float())
		if bits<<1 == 0 {
			bits = 0 // −0 == +0
		}
		return binary.LittleEndian.AppendUint64(b, bits)
	}
	return fmt.Appendf(b, "%v;", v)
}

func (img *image) encode() []byte {
	// Sized for the dictionary and the columns, with a guess for the rest.
	size := imageHeaderSize + 4<<10 + wal.DictionarySize(img.raters)
	for i := range img.prods {
		size += 21*int(img.prods[i].n) + 512*len(img.prods[i].entries) // 20 B of columns, 2 mark bits
	}
	c := imageCodec{b: make([]byte, imageHeaderSize, size)}
	c.image(img)
	b := c.b
	copy(b, imageMagic)
	binary.LittleEndian.PutUint32(b[4:], imageVersion)
	binary.LittleEndian.PutUint32(b[8:], crc32.ChecksumIEEE(b[imageHeaderSize:]))
	return b
}

// decodeImage checks an image's framing and decodes its payload in place,
// straight from data. Any deviation from the format, trailing bytes
// included, is an error.
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
	c := imageCodec{b: data[imageHeaderSize:], dec: true}
	c.image(img)
	if c.err != nil || len(c.b) != 0 {
		return nil, fmt.Errorf("engine image: malformed payload (%v, %d bytes left)", c.err, len(c.b))
	}
	return img, nil
}

// imageCodec encodes a payload by appending it to b or, with dec set,
// decodes one from the front of b, consuming it, by the same walk (image),
// so the two cannot disagree. Every value is coded by hand in
// little-endian order: a slice is a u32 count and then its elements, each
// field after field with no padding, a bool one byte (0 or 1). The first
// error stops the walk.
type imageCodec struct {
	b   []byte
	dec bool
	err error
}

// take consumes the next n bytes of a decode, or fails the walk and
// returns nil when fewer are left.
func (c *imageCodec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.b) {
		c.err = errors.New("short payload")
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

func (c *imageCodec) u32(v *uint32) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint32(c.b, *v)
	} else if p := c.take(4); p != nil {
		*v = binary.LittleEndian.Uint32(p)
	}
}

func (c *imageCodec) f64(v *float64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
	} else if p := c.take(8); p != nil {
		*v = math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
}

func (c *imageCodec) flag(v *bool) {
	switch {
	case !c.dec && *v:
		c.b = append(c.b, 1)
	case !c.dec:
		c.b = append(c.b, 0)
	default:
		if p := c.take(1); p != nil {
			if p[0] > 1 {
				c.err = fmt.Errorf("bool byte %d", p[0])
			}
			*v = p[0] == 1
		}
	}
}

func (c *imageCodec) digest(v *[32]byte) {
	if !c.dec {
		c.b = append(c.b, v[:]...)
	} else if p := c.take(len(v)); p != nil {
		copy(v[:], p)
	}
}

func (c *imageCodec) str(s *string) {
	n := uint32(len(*s))
	c.u32(&n)
	if !c.dec {
		c.b = append(c.b, *s...)
	} else if p := c.take(int(n)); p != nil {
		*s = string(p)
	}
}

func (c *imageCodec) interval(iv *detect.Interval) {
	c.f64(&iv.Start)
	c.f64(&iv.End)
}

// codeLen codes a slice's length, sizing the slice on decode (sized).
func codeLen[T any](c *imageCodec, s *[]T, size int) {
	n := uint32(len(*s))
	c.u32(&n)
	sized(c, s, int(n), size)
}

// sized sizes a decoded slice to n elements. A count whose elements of at
// least size bytes each cannot fit in what is left is an error, so no
// input allocates more than its own size.
func sized[T any](c *imageCodec, s *[]T, n, size int) {
	if !c.dec {
		return
	}
	if c.err == nil && (n < 0 || n > len(c.b)/size) {
		c.err = errors.New("count past the end")
	}
	if c.err != nil {
		n = 0
	}
	*s = make([]T, n)
}

// f64s codes a slice of n float64s, n known to both sides; a decode
// checks the row's bounds once.
func (c *imageCodec) f64s(v *[]float64, n int) {
	sized(c, v, n, 8)
	if !c.dec {
		for _, x := range *v {
			c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(x))
		}
	} else if p := c.take(8 * len(*v)); p != nil {
		for k := range *v {
			(*v)[k] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*k:]))
		}
	}
}

// bits codes n bools, n known to both sides, as ⌈n/8⌉ bytes: bool j is bit
// j%8 of byte j/8, and the padding bits are zero.
func (c *imageCodec) bits(v *[]bool, n int) {
	if !c.dec {
		for j := 0; j < n; j += 8 {
			var b byte
			for k, set := range (*v)[j:min(j+8, n)] {
				if set {
					b |= 1 << k
				}
			}
			c.b = append(c.b, b)
		}
		return
	}
	p := c.take((n + 7) / 8)
	if p == nil {
		return
	}
	if n%8 != 0 && p[len(p)-1]>>(n%8) != 0 {
		c.err = errors.New("padding bits set")
	}
	*v = make([]bool, n)
	for j := 0; j < n; j += 8 {
		b, w := p[j/8], (*v)[j:min(j+8, n)]
		for k := range w {
			w[k] = b>>k&1 == 1
		}
	}
}

func (c *imageCodec) image(img *image) {
	c.digest(&img.key)
	c.f64(&img.horizon)
	if !c.dec {
		c.b = wal.AppendDictionary(c.b, img.raters)
	} else if c.err == nil {
		img.raters, c.b, c.err = wal.ParseDictionary(c.b, false)
	}
	codeLen(c, &img.prods, minProductSize)
	for i := range img.prods {
		p := &img.prods[i]
		c.str(&p.id)
		c.u32(&p.n)
		if !c.dec {
			c.b = wal.AppendColumns(c.b, p.src.ords, p.src.series)
		} else if c.err == nil {
			p.cols, c.b, c.err = wal.SplitColumns(c.b, int(p.n), img.raters.Len())
		}
	}
	for i := range img.prods {
		p := &img.prods[i]
		codeLen(c, &p.entries, minEntrySize)
		for j := range p.entries {
			e := &p.entries[j]
			c.u32(&e.epoch)
			c.u32(&e.n)
			c.f64(&e.pre.arcHi)
			codeLen(c, &e.pre.sig.MC, 41)
			for k := range e.pre.sig.MC {
				m := &e.pre.sig.MC[k]
				c.interval(&m.Interval)
				c.f64(&m.Mean)
				c.f64(&m.AvgTrust)
				c.f64(&m.Shift)
				c.flag(&m.Suspicious)
			}
			for _, a := range [2]*detect.ARCSignals{&e.pre.sig.HARC, &e.pre.sig.LARC} {
				band := uint32(int32(a.Band))
				c.u32(&band)
				a.Band = detect.ARCBand(int32(band))
				peaks := uint32(len(a.PeakDays))
				c.u32(&peaks)
				c.f64s(&a.PeakDays, int(peaks))
				codeLen(c, &a.Segments, 25)
				for k := range a.Segments {
					sg := &a.Segments[k]
					c.interval(&sg.Interval)
					c.f64(&sg.Rate)
					c.flag(&sg.Suspicious)
				}
				c.f64(&a.ThresholdA)
				c.f64(&a.ThresholdB)
			}
			for _, ivs := range [2]*[]detect.Interval{&e.pre.sig.HC, &e.pre.sig.ME} {
				codeLen(c, ivs, 16)
				for k := range *ivs {
					c.interval(&(*ivs)[k])
				}
			}
		}
	}
	c.flag(&img.decided)
	for i := 0; img.decided && i < len(img.prods); i++ {
		p, periods := &img.prods[i], epoch.Periods(img.horizon)
		c.bits(&p.causal, int(p.n))
		c.bits(&p.final, int(p.n))
		c.f64s(&p.scores, periods)
		c.f64s(&p.published, periods)
	}
}
