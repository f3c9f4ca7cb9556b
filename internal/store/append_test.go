package store

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// TestViewsStableDuringInOrderAppends: readers hold View cuts while
// writers submit in day order to the same products, so the shards append
// in place into the arrays the cuts share. Every cut must re-read
// bit-identical to a Clone taken right after it, and a reader's Insert on
// its capacity-capped view must never reach shard state. Run under -race,
// an uncapped view or an in-place write below a view's length shows up as
// a data race as well as a mismatch. Each cut must also hold at least the
// submits the Generation read before it counts, which is what lets the
// server record a table as covering that generation.
func TestViewsStableDuringInOrderAppends(t *testing.T) {
	const perProduct = 1500
	products := testProducts(4)
	st, err := New(600, products, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var writers sync.WaitGroup
	for w, p := range products {
		writers.Add(1)
		go func(w int, p string) {
			defer writers.Done()
			for i := 0; i < perProduct; i++ {
				// Three ratings a day: in order, with same-day ties.
				if _, err := st.Submit(ctx, p, fmt.Sprintf("w%d-%d", w, i), 3, float64(i/3)); err != nil {
					t.Errorf("submit %s #%d: %v", p, i, err)
					return
				}
			}
		}(w, p)
	}
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()

	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for cut := 0; ; cut++ {
				select {
				case <-done:
					return
				default:
				}
				gen := st.Generation()
				d := st.View()
				n := 0
				for _, p := range d.Products {
					n += len(p.Ratings)
				}
				if uint64(n) < gen-1 {
					t.Errorf("reader %d cut %d holds %d ratings, but the generation read before it counts %d submits", r, cut, n, gen-1)
					return
				}
				want := d.Clone()
				// A reader's tail Insert on its view must reallocate, not
				// write into the shard's spare capacity.
				own := d.Products[cut%len(products)].Ratings.Insert(dataset.Rating{Day: 599, Value: 1, Rater: "reader"})
				runtime.Gosched()
				if !sameDataset(d, want) {
					t.Errorf("reader %d cut %d changed under concurrent appends", r, cut)
					return
				}
				if last := own[len(own)-1]; last.Rater != "reader" {
					t.Errorf("reader %d cut %d: its own Insert was overwritten by %+v", r, cut, last)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	if t.Failed() {
		return
	}

	// Sequentially: a reader's Insert on its view leaves the store's next
	// View unchanged, down to every product's series header (the engine
	// takes an unchanged header for unchanged content), and the store's
	// next append never shows through the reader's series.
	v := st.View()
	before := v.Clone()
	own := v.Products[0].Ratings.Insert(dataset.Rating{Day: 599, Value: 1, Rater: "reader"})
	next := st.View()
	if !sameDataset(next, before) {
		t.Fatal("a reader's Insert on its view changed the store's next View")
	}
	for i, p := range next.Products {
		if q := v.Products[i].Ratings; len(p.Ratings) != len(q) || len(q) != 0 && &p.Ratings[0] != &q[0] {
			t.Fatalf("product %s: two Views with no submit between them hand out different series headers", p.ID)
		}
	}
	if _, err := st.Submit(ctx, products[0], "late", 2, 599); err != nil {
		t.Fatal(err)
	}
	if last := own[len(own)-1]; last.Rater != "reader" {
		t.Fatalf("the store's append overwrote the reader's Insert: %+v", last)
	}
	after := st.View().Products[0].Ratings
	if got := after[len(after)-1]; got.Rater != "late" || len(after) != perProduct+1 {
		t.Fatalf("store series ends with %+v (len %d), want rater late (len %d)", got, len(after), perProduct+1)
	}
}

// sameDataset reports whether two datasets hold bit-identical products.
func sameDataset(a, b *dataset.Dataset) bool {
	if len(a.Products) != len(b.Products) {
		return false
	}
	for i := range a.Products {
		pa, pb := a.Products[i], b.Products[i]
		if pa.ID != pb.ID || len(pa.Ratings) != len(pb.Ratings) {
			return false
		}
		for j := range pa.Ratings {
			ra, rb := pa.Ratings[j], pb.Ratings[j]
			if math.Float64bits(ra.Day) != math.Float64bits(rb.Day) ||
				math.Float64bits(ra.Value) != math.Float64bits(rb.Value) ||
				ra.Rater != rb.Rater || ra.Unfair != rb.Unfair {
				return false
			}
		}
	}
	return true
}
