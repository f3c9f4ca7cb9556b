package dataset

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// TestInsertMatchesMerge pins Insert's contract: for any sorted series and
// any single rating, Insert is bit-identical to Merge of a one-element
// series (which stable-sorts, so same-day ratings keep insertion order),
// and it never modifies the receiver's elements — even when the receiver
// has spare capacity the tail path appends into.
func TestInsertMatchesMerge(t *testing.T) {
	rng := stats.NewRNG(17)
	for trial := 0; trial < 200; trial++ {
		var s Series
		n := rng.IntN(20)
		for i := 0; i < n; i++ {
			// Coarse days force plenty of exact-day ties.
			s = append(s, Rating{Day: float64(rng.IntN(8)), Value: float64(rng.IntN(10)) / 2,
				Rater: fmt.Sprintf("r%d", i)})
		}
		s.Sort()
		// Random spare capacity, so the tail path sometimes appends in place
		// and sometimes has to grow.
		s = append(make(Series, 0, len(s)+rng.IntN(3)), s...)
		before := s.Clone()
		r := Rating{Day: float64(rng.IntN(8)), Value: 3, Rater: "new"}
		got := s.Insert(r)
		want := s.Merge(Series{r})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Insert = %v, Merge = %v", trial, got, want)
		}
		if len(got) != len(s)+1 {
			t.Fatalf("trial %d: len = %d, want %d", trial, len(got), len(s)+1)
		}
		if !sameBits(s, before) {
			t.Fatalf("trial %d: Insert modified the receiver: %v, want %v", trial, s, before)
		}
	}
}

// TestInsertCopyOnWrite: an out-of-order insert copies, so the result is
// unaliased from the receiver.
func TestInsertCopyOnWrite(t *testing.T) {
	s := Series{{Day: 1, Rater: "a"}, {Day: 3, Rater: "b"}}
	orig := s.Clone()
	out := s.Insert(Rating{Day: 2, Rater: "c"})
	out[0].Rater = "mutated"
	if !reflect.DeepEqual(s, orig) {
		t.Fatalf("receiver mutated by Insert: %v", s)
	}
}

// TestInsertEarlierHeadersStable: after a random mix of in-order (append in
// place) and out-of-order (copy) Inserts, every header the owner held along
// the way still reads bit-identical to a Clone taken when it was current —
// the append-only-below-len invariant readers of earlier views rely on.
func TestInsertEarlierHeadersStable(t *testing.T) {
	rng := stats.NewRNG(29)
	var s Series
	var headers, clones []Series
	day := 0.0
	for i := 0; i < 400; i++ {
		headers = append(headers, s)
		clones = append(clones, s.Clone())
		var d float64
		if rng.IntN(10) == 0 && day > 0 {
			d = float64(rng.IntN(int(day))) // out of order
		} else {
			day += float64(rng.IntN(2)) // in order, with same-day ties
			d = day
		}
		s = s.Insert(Rating{Day: d, Value: float64(rng.IntN(10)) / 2, Rater: fmt.Sprintf("r%d", i)})
	}
	for i := range headers {
		if !sameBits(headers[i], clones[i]) {
			t.Fatalf("header %d changed after later Inserts: %v, want %v", i, headers[i], clones[i])
		}
	}
}

// TestInsertCappedViewNeverWritesOwner: Insert on a capacity-capped view of
// an owner's series reallocates, so it never writes into the owner's spare
// capacity, and the owner's own later appends never show through the view.
func TestInsertCappedViewNeverWritesOwner(t *testing.T) {
	owner := make(Series, 0, 16)
	for i := 0; i < 4; i++ {
		owner = owner.Insert(Rating{Day: float64(i), Rater: fmt.Sprintf("o%d", i)})
	}
	n := len(owner)
	view := owner[:n:n]
	spare := owner[:cap(owner)]
	for _, r := range []Rating{{Day: 9, Rater: "tail"}, {Day: 1.5, Rater: "middle"}} {
		out := view.Insert(r)
		if &out[0] == &owner[0] {
			t.Fatalf("Insert(%v) on a capped view shares the owner's backing array", r)
		}
		if spare[n] != (Rating{}) {
			t.Fatalf("Insert(%v) on a capped view wrote the owner's spare capacity: %v", r, spare[n])
		}
	}
	owner = owner.Insert(Rating{Day: 5, Rater: "owner-next"})
	if len(view) != n || !sameBits(view, owner[:n]) {
		t.Fatalf("owner's append showed through the view: %v", view)
	}
}

// TestInsertInOrderAllocs guards the amortised O(1) tail path: 4096
// in-order Inserts grow the backing array geometrically, so they allocate
// O(log n) times, not once per rating.
func TestInsertInOrderAllocs(t *testing.T) {
	const n = 4096
	allocs := testing.AllocsPerRun(5, func() {
		var s Series
		for i := 0; i < n; i++ {
			s = s.Insert(Rating{Day: float64(i / 3), Value: 4, Rater: "r"})
		}
	})
	// Go's append grows by 2x up to 256 elements and by ~1.25x beyond, so
	// the count is a small multiple of log2(n) = 12.
	if limit := 4 * math.Log2(n); allocs > limit {
		t.Fatalf("%d in-order Inserts allocated %v times, want <= %v", n, allocs, limit)
	}
}

// sameBits reports whether two series are bit-identical, float bits
// included.
func sameBits(a, b Series) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Day) != math.Float64bits(b[i].Day) ||
			math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) ||
			a[i].Rater != b[i].Rater || a[i].Unfair != b[i].Unfair {
			return false
		}
	}
	return true
}

// TestCloneKeepsVersion: dataset clones must carry product versions, or a
// cloned dataset would silently opt out of version-keyed caching.
func TestCloneKeepsVersion(t *testing.T) {
	d := &Dataset{HorizonDays: 90, Products: []Product{
		{ID: "p", Ratings: Series{{Day: 1}}, Version: 7},
	}}
	if got := d.Clone().Products[0].Version; got != 7 {
		t.Fatalf("cloned Version = %d, want 7", got)
	}
}

// BenchmarkSeriesInsert times one Insert into a fixed n = 2048 series, so
// the per-op cost is independent of b.N. Every op re-slices a preallocated
// base with one spare slot: tail appends into that slot (0 allocs/op),
// middle copies into a fresh exactly presized array (1 alloc/op).
func BenchmarkSeriesInsert(b *testing.B) {
	const n = 2048
	base := make(Series, n, n+1)
	for i := range base {
		base[i] = Rating{Day: float64(i), Value: 3, Rater: "r"}
	}
	for _, c := range []struct {
		name string
		day  float64
	}{{"tail", n}, {"middle", n / 2}} {
		b.Run(c.name, func(b *testing.B) {
			r := Rating{Day: c.day, Value: 4, Rater: "new"}
			b.ReportAllocs()
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				sink += len(base[:n].Insert(r))
			}
			if sink != b.N*(n+1) {
				b.Fatal("wrong length")
			}
		})
	}
}
