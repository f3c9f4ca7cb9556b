package wal_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/trust"
	"repro/internal/wal"
)

// TestSnapshotColumnsCodec writes a dictionary and three ratings' columns
// with what follows them, and parses them back: the names, every
// rating's ordinal, Value and Day bits (negative zero and a fraction
// included) and the bytes after each part. A dictionary that names a
// rater twice, a rating whose ordinal equals the dictionary's length and
// either part cut short are refused.
func TestSnapshotColumnsCodec(t *testing.T) {
	raters := trust.NewSymbols(0)
	for _, name := range []string{"a", "", strings.Repeat("r", 300)} {
		raters, _ = raters.Intern(name)
	}
	s := dataset.Series{{Day: 0, Value: math.Copysign(0, -1)}, {Day: 1.0 / 3, Value: 0.1}, {Day: 89.999, Value: 5}}
	ords := []uint32{2, 0, 2}
	dict := wal.AppendDictionary(nil, raters)
	if len(dict) != wal.DictionarySize(raters) {
		t.Fatalf("the dictionary is %d bytes, DictionarySize says %d", len(dict), wal.DictionarySize(raters))
	}
	b := append(wal.AppendColumns(append(dict, 7), ords, s), 9)

	got, rest, err := wal.ParseDictionary(b, false)
	if err != nil || got.Len() != raters.Len() || len(rest) != len(b)-len(dict) || rest[0] != 7 {
		t.Fatalf("ParseDictionary: %v, %d bytes left", err, len(rest))
	}
	for o := 0; o < raters.Len(); o++ {
		if got.Name(uint32(o)) != raters.Name(uint32(o)) {
			t.Fatalf("name %d = %q, want %q", o, got.Name(uint32(o)), raters.Name(uint32(o)))
		}
	}
	cols, rest, err := wal.SplitColumns(rest[1:], len(s), got.Len())
	if err != nil || cols.Len() != len(s) || len(rest) != 1 || rest[0] != 9 {
		t.Fatalf("SplitColumns: %v, %d ratings, %d bytes left", err, cols.Len(), len(rest))
	}
	for j, r := range s {
		o, value, day := cols.At(j)
		if o != ords[j] || math.Float64bits(value) != math.Float64bits(r.Value) || math.Float64bits(day) != math.Float64bits(r.Day) {
			t.Fatalf("rating %d = (%d, %v, %v), want (%d, %v, %v)", j, o, value, day, ords[j], r.Value, r.Day)
		}
	}

	twice, _ := trust.SymbolsOf([]string{"a", "b", "a"}, false)
	if _, _, err := wal.ParseDictionary(wal.AppendDictionary(nil, twice), false); err == nil || !strings.Contains(err.Error(), "names a rater twice") {
		t.Fatalf("a dictionary that names a rater twice: %v", err)
	}
	if _, _, err := wal.ParseDictionary(wal.AppendDictionary(nil, twice), true); err == nil {
		t.Fatal("an indexed dictionary that names a rater twice was accepted")
	}
	if _, _, err := wal.ParseDictionary(dict[:len(dict)-1], false); err == nil {
		t.Fatal("a dictionary cut short was accepted")
	}
	past := wal.AppendColumns(nil, []uint32{0, uint32(raters.Len())}, s[:2])
	if _, _, err := wal.SplitColumns(past, 2, raters.Len()); err == nil || !strings.Contains(err.Error(), "record 1 names rater 3 of 3") {
		t.Fatalf("an ordinal equal to the dictionary's length: %v", err)
	}
	if _, _, err := wal.SplitColumns(past[:len(past)-1], 2, raters.Len()+1); err == nil {
		t.Fatal("columns cut short were accepted")
	}
}
