package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/trust"
)

// Both durable files, the snapshot (version 3) and the engine image
// (engine.img version 4), store ratings one way, little-endian (DESIGN.md
// §7): a rater dictionary, the o-th name being the rater of ordinal o and
// no name twice,
//
//	u32 K | K u32 name lengths | the K names back to back
//
// and N ratings as columns in series order, each naming its rater by an
// ordinal below K:
//
//	N u32 rater ordinals | N u64 IEEE-754 bits of Value | N u64 of Day
//
// Each file frames them, and writes N, its own way.

// DictionarySize returns the size of the dictionary of raters.
func DictionarySize(raters *trust.Symbols) int {
	size := 4 + 4*raters.Len()
	for o := 0; o < raters.Len(); o++ {
		size += len(raters.Name(uint32(o)))
	}
	return size
}

// AppendDictionary appends the dictionary of raters to b.
func AppendDictionary(b []byte, raters *trust.Symbols) []byte {
	k := raters.Len()
	b = binary.LittleEndian.AppendUint32(b, uint32(k))
	for o := 0; o < k; o++ {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(raters.Name(uint32(o)))))
	}
	for o := 0; o < k; o++ {
		b = append(b, raters.Name(uint32(o))...)
	}
	return b
}

// ParseDictionary parses the dictionary at the front of b into the table
// of its names (trust.SymbolsOf, indexed now when index is set), which
// slice one string, and returns the bytes after it. A dictionary that
// overruns b or names a rater twice is an error.
func ParseDictionary(b []byte, index bool) (*trust.Symbols, []byte, error) {
	le := binary.LittleEndian
	if len(b) < 4 || uint64(le.Uint32(b)) > uint64(len(b)-4)/4 {
		return nil, nil, fmt.Errorf("%d-byte dictionary too short for its name count", len(b))
	}
	k := int(le.Uint32(b))
	lens, rest, total := b[4:4+4*k], b[4+4*k:], uint64(0)
	for o := 0; o < k; o++ {
		total += uint64(le.Uint32(lens[4*o:]))
	}
	if total > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%d names overrun %d bytes", k, len(rest))
	}
	all, names := string(rest[:total]), make([]string, k)
	for o := range names {
		names[o], all = all[:le.Uint32(lens[4*o:])], all[le.Uint32(lens[4*o:]):]
	}
	t, ok := trust.SymbolsOf(names, index)
	if !ok {
		return nil, nil, errors.New("the rater dictionary names a rater twice")
	}
	return t, rest[total:], nil
}

// Columns is a view of N ratings' columns, aliasing the bytes that hold
// them. Its methods take a pointer, so a loop over it never copies it.
type Columns struct {
	ords, values, days []byte
}

// AppendColumns appends the columns of the ratings s, whose raters have
// the ordinals ords, to b.
func AppendColumns(b []byte, ords []uint32, s dataset.Series) []byte {
	le := binary.LittleEndian
	for _, o := range ords {
		b = le.AppendUint32(b, o)
	}
	for _, r := range s {
		b = le.AppendUint64(b, math.Float64bits(r.Value))
	}
	for _, r := range s {
		b = le.AppendUint64(b, math.Float64bits(r.Day))
	}
	return b
}

// SplitColumns splits the columns of n ratings off the front of b and
// returns them and the bytes after them. Columns that overrun b, or an
// ordinal not below k, the dictionary's length, are an error.
func SplitColumns(b []byte, n, k int) (Columns, []byte, error) {
	if n < 0 || n > len(b)/blockRecordSize {
		return Columns{}, nil, fmt.Errorf("%d records overrun %d bytes", n, len(b))
	}
	for i := 0; i < n; i++ {
		if o := binary.LittleEndian.Uint32(b[4*i:]); uint64(o) >= uint64(k) {
			return Columns{}, nil, fmt.Errorf("record %d names rater %d of %d", i, o, k)
		}
	}
	return Columns{b[:4*n], b[4*n : 12*n], b[12*n : 20*n]}, b[20*n:], nil
}

// Len returns the number of ratings.
func (c *Columns) Len() int { return len(c.ords) / 4 }

// At returns rating i's rater ordinal, value and day.
func (c *Columns) At(i int) (rater uint32, value, day float64) {
	le := binary.LittleEndian
	return le.Uint32(c.ords[4*i:]), math.Float64frombits(le.Uint64(c.values[8*i:])), math.Float64frombits(le.Uint64(c.days[8*i:]))
}
