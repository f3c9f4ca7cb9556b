package agg

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/reference"
	"repro/internal/stats"
)

// attackedData is reference.AttackedData, failing t on an error.
func attackedData(t testing.TB, seed uint64) *dataset.Dataset {
	t.Helper()
	d, err := reference.AttackedData(seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestOnlineMatchesReferenceProperty: the engine-published table that
// OnlinePScheme returns is bit-identical to the reference's Published
// table on seeded attacked datasets with partial final periods.
func TestOnlineMatchesReferenceProperty(t *testing.T) {
	p := NewOnlinePScheme()
	for seed := uint64(1); seed <= 12; seed++ {
		d := attackedData(t, seed)
		got, want := p.Aggregates(d), reference.Evaluate(d, p.Detect).Published
		for id, w := range want {
			if err := reference.DiffScores(got[id], w); err != nil {
				t.Fatalf("seed %d horizon %v: product %s: %v", seed, d.HorizonDays, id, err)
			}
		}
	}
}

// TestResumePublishedMatchesReference: an incrementally resumed engine
// (table, marks, trust and Published) stays bit-identical to the reference
// on the current data as ratings arrive late and early — memo on and off
// (off: resumed on a recopied view, every series a new header with the
// same content, so every memo entry is dropped), serial and parallel.
func TestResumePublishedMatchesReference(t *testing.T) {
	p := NewOnlinePScheme()
	for _, tc := range []struct {
		name string
		eng  *engine.Engine
		memo bool
	}{
		{"memo-workers4", &engine.Engine{Detect: p.Detect, Workers: 4}, true},
		{"nomemo-workers1", &engine.Engine{Detect: p.Detect, Workers: 1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{5, 17} {
				rng := stats.NewRNG(seed + 100)
				full := attackedData(t, seed)
				// Start from roughly two thirds of each product's history;
				// the rest arrives in random order, so inserts land both at
				// the tail and before already-published epochs.
				live := &dataset.Dataset{HorizonDays: full.HorizonDays}
				type pending struct {
					product int
					r       dataset.Rating
				}
				var backlog []pending
				for i, prod := range full.Products {
					var keep dataset.Series
					for _, r := range prod.Ratings {
						if rng.Float64() < 0.67 {
							keep = append(keep, r)
						} else {
							backlog = append(backlog, pending{i, r})
						}
					}
					live.Products = append(live.Products, dataset.Product{ID: prod.ID, Ratings: keep})
				}
				rng.Shuffle(len(backlog), func(i, j int) { backlog[i], backlog[j] = backlog[j], backlog[i] })

				st := engine.NewState()
				for step := 0; ; step++ {
					view := live
					if !tc.memo {
						view = live.Clone()
					}
					res, err := tc.eng.Resume(context.Background(), st, view)
					if err != nil {
						t.Fatal(err)
					}
					if step%4 == 0 || len(backlog) == 0 {
						if err := reference.Evaluate(live, p.Detect).Diff(res); err != nil {
							t.Fatalf("seed %d, %d pending: %v", seed, len(backlog), err)
						}
					}
					if len(backlog) == 0 {
						break
					}
					k := min(1+rng.IntN(12), len(backlog))
					for _, ins := range backlog[:k] {
						prod := &live.Products[ins.product]
						prod.Ratings = prod.Ratings.Insert(ins.r)
					}
					backlog = backlog[k:]
				}
			}
		})
	}
}
