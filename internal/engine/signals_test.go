package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/epoch"
)

// TestTrustOnlyMissReusesSignals: a submit that only moves a shared
// rater's trust must cost the other product one Decide pass — a memo miss
// on the trust tier, but no trust-free signal recomputation.
func TestTrustOnlyMissReusesSignals(t *testing.T) {
	d := disjointDataset(2, 8, 90) // 3 epochs, products p0 and p1
	for i := range d.Products {
		p := &d.Products[i]
		p.Ratings = p.Ratings.Insert(dataset.Rating{Day: 5, Value: 4, Rater: "shared"})
	}
	eng := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
	st := NewState()
	mustResume(t, eng, st, d)

	// The shared rater rates p0 again in the last epoch: p0's series
	// changes; p1's does not, but its final-pass trust (the shared rater's
	// record) does.
	before := st.Stats()
	if err := touch(d, "p0", dataset.Rating{Day: 75, Value: 1, Rater: "shared"}); err != nil {
		t.Fatal(err)
	}
	got := mustResume(t, eng, st, d)
	after := st.Stats()
	requireEqualResults(t, "after shared-rater submit", got,
		reference(t, d))

	// Misses: p0 in the dirty epoch and the final pass, p1 in the final
	// pass only (its epoch-2 trust is unchanged).
	if n := after.MemoMisses - before.MemoMisses; n != 3 {
		t.Fatalf("memo misses = %d, want 3 (p0 epoch 2 + p0 final + p1 final)", n)
	}
	// Signal misses: p0's epoch-2 MC/HC/ME and ARC parts, nothing else.
	// p0's final pass reuses its epoch-2 signals (same prefix, same
	// horizon) and p1's final pass reuses its own.
	if n := after.SignalMisses - before.SignalMisses; n != 2 {
		t.Errorf("signal misses = %d, want 2 (p0's epoch-2 parts only)", n)
	}
	if n := after.SignalHits - before.SignalHits; n != 4 {
		t.Errorf("signal hits = %d, want 4 (2 parts × {p0 final, p1 final})", n)
	}
}

// TestSubmitComputesSeriesSignalsOncePerResume: a late submit dirties its
// epoch and every later one, plus the final pass, but the submitted
// product's MC/HC/ME signals are computed once — epochs with no ratings of
// their own are skipped, and the final pass reuses the dirty epoch's
// prefix signals. Only the ARC part, keyed by horizon, is computed again.
func TestSubmitComputesSeriesSignalsOncePerResume(t *testing.T) {
	d := disjointDataset(3, 8, 90) // ratings in [0, 90) only
	d.HorizonDays = 150            // 5 epochs; epochs 3 and 4 are empty
	eng := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
	st := NewState()
	mustResume(t, eng, st, d)

	before := st.Stats()
	if err := touch(d, "p1", dataset.Rating{Day: 80, Value: 1, Rater: "p1-late"}); err != nil {
		t.Fatal(err)
	}
	got := mustResume(t, eng, st, d)
	after := st.Stats()
	requireEqualResults(t, "after late submit", got,
		reference(t, d))

	if n := after.Analyzed - before.Analyzed; n != 2 {
		t.Errorf("analyses = %d, want 2 (p1 in epoch 2 and in the final pass)", n)
	}
	// Epoch 2: both parts computed. Final pass: the MC/HC/ME part is
	// reused from epoch 2 (its prefix is the whole series), the ARC part
	// recomputed for horizon 150 instead of 90.
	if n := after.SignalMisses - before.SignalMisses; n != 3 {
		t.Errorf("signal misses = %d, want 3 (epoch-2 MC/HC/ME and ARC, final ARC)", n)
	}
	if n := after.SignalHits - before.SignalHits; n != 1 {
		t.Errorf("signal hits = %d, want 1 (final-pass MC/HC/ME)", n)
	}
}

// TestColdResumeRecordsFreshSignals checks the per-Resume carry from the
// engine's side. A cold Resume computes each product's signals by
// extending one carried prefix epoch after epoch, then into the final
// pass. Every signals tier it records in the memo must equal a fresh
// detector run on that entry's own prefix.
func TestColdResumeRecordsFreshSignals(t *testing.T) {
	cfg := detect.DefaultConfig()
	sc := detect.NewScratch()
	for _, seed := range []uint64{1, 7} {
		d := testDataset(t, seed, 4, 150)
		st := NewState()
		mustResume(t, &Engine{Detect: cfg, Workers: 2}, st, d)
		checked := 0
		check := func(label string, s dataset.Series, pre prefixSignals) {
			t.Helper()
			want := detect.SeriesSignals(s, cfg, sc, nil)
			want.HARC, want.LARC = detect.ArrivalSignals(s, pre.arcHi, cfg, sc, nil)
			if !reflect.DeepEqual(pre.sig, want) {
				t.Fatalf("%s: recorded signals %+v, fresh %+v", label, pre.sig, want)
			}
			checked++
		}
		for i := range d.Products {
			prod := &d.Products[i]
			m := &st.prods[i].memo
			for ep, ent := range m.epochs {
				if ent.valid {
					_, hi := epoch.PeriodInterval(ep, d.HorizonDays)
					check(fmt.Sprintf("seed %d %s epoch %d", seed, prod.ID, ep), prod.Ratings.Between(0, hi), ent.pre)
				}
			}
			if m.final.valid {
				check(fmt.Sprintf("seed %d %s final", seed, prod.ID), prod.Ratings, m.final.pre)
			}
		}
		if want := len(d.Products) * (epoch.Periods(d.HorizonDays) + 1); checked != want {
			t.Fatalf("seed %d: checked %d memo entries, want %d (every epoch and final pass)", seed, checked, want)
		}
	}
}
