package wal

import (
	"repro/internal/dataset"
	"repro/internal/trust"
)

// SnapshotMagic exposes the snapshot header's leading bytes to the
// external tests.
const SnapshotMagic = snapshotMagic

// Interned returns d, a dictionary of its raters in first-seen order and
// their ordinals, product by product: Compact's arguments for d.
func Interned(d *dataset.Dataset) (*dataset.Dataset, *trust.Symbols, [][]uint32) {
	t, ords := trust.NewSymbols(0), make([][]uint32, len(d.Products))
	for i, p := range d.Products {
		for _, r := range p.Ratings {
			var o uint32
			t, o = t.Intern(r.Rater)
			ords[i] = append(ords[i], o)
		}
	}
	return d, t, ords
}
