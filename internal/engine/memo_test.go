package engine

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/epoch"
	"repro/internal/stats"
	"repro/internal/trust"
)

// recopied returns a view of d in which every series is a copy: a new
// header with the same content. A state resumed on it keeps its
// checkpoints but drops every memo entry.
func recopied(d *dataset.Dataset) *dataset.Dataset { return d.Clone() }

// reference is the memo-off cold evaluation of d: a fresh state has no
// memo to hit.
func reference(t *testing.T, d *dataset.Dataset) *Result {
	t.Helper()
	return mustEvaluate(t, &Engine{Detect: detect.DefaultConfig()}, d)
}

// touch applies one rating to a product the way its owner
// (internal/store) would: an Insert, which never mutates the series below
// an earlier view's length and makes a new header.
func touch(d *dataset.Dataset, product string, r dataset.Rating) error {
	p, err := d.Product(product)
	if err != nil {
		return err
	}
	p.Ratings = p.Ratings.Insert(r)
	return nil
}

// disjointDataset builds a handcrafted dataset whose products share no
// raters and have ratings in every epoch — the shape where memo counting
// is exactly predictable.
func disjointDataset(products, perEpoch int, horizon float64) *dataset.Dataset {
	n := epoch.Periods(horizon)
	d := &dataset.Dataset{HorizonDays: horizon}
	for p := 0; p < products; p++ {
		id := fmt.Sprintf("p%d", p)
		var s dataset.Series
		for e := 0; e < n; e++ {
			for j := 0; j < perEpoch; j++ {
				s = append(s, dataset.Rating{
					Day:   float64(e)*30 + 1 + float64(j)*28/float64(perEpoch),
					Value: 3 + 0.5*float64(j%3),
					Rater: fmt.Sprintf("%s-e%d-r%d", id, e, j),
				})
			}
		}
		s.Sort()
		d.Products = append(d.Products, dataset.Product{ID: id, Ratings: s})
	}
	return d
}

// TestMemoCountersSingleProductTouch is the deterministic counting
// contract behind the engine_* metrics: on a warmed state, submitting one
// rating to one product must miss exactly that product (once in the dirty
// epoch, once in the final pass), replay every other product from cache,
// and drop exactly the touched product's cached entries.
func TestMemoCountersSingleProductTouch(t *testing.T) {
	d := disjointDataset(4, 8, 90) // 3 epochs, 4 products, disjoint raters
	eng := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
	st := NewState()
	mustResume(t, eng, st, d)

	before := st.Stats()
	p := &d.Products[2]
	p.Ratings = p.Ratings.Insert(dataset.Rating{Day: 75, Value: 1, Rater: "p2-late"})
	mustResume(t, eng, st, d)
	after := st.Stats()

	if got := after.MemoMisses - before.MemoMisses; got != 2 {
		t.Errorf("misses = %d, want 2 (touched product in dirty epoch + final pass)", got)
	}
	if got := after.MemoHits - before.MemoHits; got != 6 {
		t.Errorf("hits = %d, want 6 (3 untouched products × {dirty epoch, final pass})", got)
	}
	if got := after.MemoInvalidated - before.MemoInvalidated; got != 4 {
		t.Errorf("invalidations = %d, want 4 (touched product's 3 epoch entries + final)", got)
	}
	if got := after.Analyzed - before.Analyzed; got != 2 {
		t.Errorf("analyses = %d, want 2 — a single touch must cost O(changed product)", got)
	}
}

// TestMidHistoryEditSparesOtherProducts: a mid-history edit to one
// product re-runs the epochs from the edit on, but with no rater shared
// across products every other product replays each of them, and the
// final pass, from the memo: the edited product's lookups are the only
// misses and its analyses the only ones run. The result stays bit-exact.
func TestMidHistoryEditSparesOtherProducts(t *testing.T) {
	const horizon = 360.0
	d := disjointDataset(4, 6, horizon)
	eng := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
	st := NewState()
	mustResume(t, eng, st, d)

	p := &d.Products[1]
	s := p.Ratings.Clone()
	i, _ := s.BetweenIndex(180, horizon)
	s[i].Value = 1
	p.Ratings = s
	before := st.Stats()
	got := mustResume(t, eng, st, d)
	after := st.Stats()
	requireEqualResults(t, "mid-history edit", got, reference(t, d))

	rerun := epoch.Periods(horizon) - epoch.PeriodOf(s[i].Day, horizon)
	if n := after.Analyzed - before.Analyzed; n != uint64(rerun+1) {
		t.Errorf("analyses = %d, want %d (the edited product's %d re-run epochs + final pass)", n, rerun+1, rerun)
	}
	if n := after.MemoMisses - before.MemoMisses; n != uint64(rerun+1) {
		t.Errorf("misses = %d, want %d (the edited product only)", n, rerun+1)
	}
	others := len(d.Products) - 1
	if n := after.MemoHits - before.MemoHits; n != uint64(others*(rerun+1)) {
		t.Errorf("hits = %d, want %d (%d other products × %d lookups)", n, others*(rerun+1), others, rerun+1)
	}
}

// TestMemoHitEpochsFold re-runs epochs in which every product replays its
// marks from the memo: the edited product's history ends in the edited
// epoch and the others share none of its raters. Such an epoch still folds
// its ratings into a fresh checkpoint (only an epoch with no ratings
// shares its parent's), so the result must equal the reference.
func TestMemoHitEpochsFold(t *testing.T) {
	const horizon = 360.0
	d := disjointDataset(3, 6, horizon)
	p := &d.Products[1]
	end, _ := p.Ratings.BetweenIndex(200, horizon)
	p.Ratings = p.Ratings[:end:end]
	eng := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
	st := NewState()
	mustResume(t, eng, st, d)

	s := p.Ratings.Clone()
	i, _ := s.BetweenIndex(180, horizon)
	s[i].Value = 1
	p.Ratings = s
	before := st.Stats()
	requireEqualResults(t, "edit before memo-hit epochs", mustResume(t, eng, st, d), reference(t, d))
	if n := st.Stats().MemoMisses - before.MemoMisses; n != 2 {
		t.Fatalf("misses = %d, want 2 (the edited epoch and the final pass): the later epochs are not all hits", n)
	}
	for ep := epoch.PeriodOf(180, horizon); ep < epoch.Periods(horizon); ep++ {
		if st.checkpoints[ep+1] == st.checkpoints[ep] {
			t.Errorf("epoch %d has ratings but appends its parent checkpoint", ep)
		}
	}
}

// TestFingerprintCollisionNeverServed runs the equivalence property over
// random touches and requires bit-identical output: no hash screens the
// trust tier, so the exact record compare alone must reject every stale
// entry.
func TestFingerprintCollisionNeverServed(t *testing.T) {
	const horizon = 150.0
	rng := stats.NewRNG(41)
	d := testDataset(t, 41, 3, horizon)
	eng := &Engine{Detect: detect.DefaultConfig()}
	st := NewState()
	requireEqualResults(t, "initial", mustResume(t, eng, st, d), reference(t, d))
	for i := 0; i < 12; i++ {
		p := d.Products[rng.IntN(len(d.Products))].ID
		r := dataset.Rating{
			Day:   rng.Float64() * horizon,
			Value: dataset.QuantizeHalfStar(rng.Float64() * 5),
			Rater: fmt.Sprintf("fuzz-%d", i),
		}
		if err := touch(d, p, r); err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, fmt.Sprintf("after touch %d", i),
			mustResume(t, eng, st, d), reference(t, d))
	}
}

// TestEpochHitRejectsStaleTrust unit-tests the trust-tier hit rule on
// pass 0, an epoch, and pass n, the final pass, alike: a probe under the
// checkpoint the entry was recorded under hits; a distinct manager with
// equal records for the prefix's raters hits and rebinds the entry to it;
// a record changed after the rebind misses, as do stale trust and a
// different prefix length, and a miss leaves the entry bound where it was.
func TestEpochHitRejectsStaleTrust(t *testing.T) {
	ords := []uint32{0} // one rating, by the rater of ordinal 0
	mgr1 := trust.NewManager()
	mgr1.ObserveAt(0, 2, 1)
	m := productMemo{newEntry(ords, prefixSignals{}, mgr1), {}, newEntry(ords, prefixSignals{}, mgr1)}

	for _, ep := range []int{0, len(m) - 1} {
		if !m.hit(ep, ords, mgr1) || m[ep].under != mgr1 {
			t.Fatalf("pass %d: entry not served under the checkpoint it was recorded under", ep)
		}
		stale := trust.NewManager()
		stale.ObserveAt(0, 5, 3)
		if m.hit(ep, ords, stale) || m[ep].under != mgr1 {
			t.Fatalf("pass %d: stale-trust entry was served or rebound", ep)
		}
		// equal differs from mgr1 only in a rater outside the prefix.
		equal := mgr1.Clone()
		equal.ObserveAt(1, 4, 0)
		if !m.hit(ep, ords, equal) {
			t.Fatalf("pass %d: entry not served under a manager with equal records", ep)
		}
		if m[ep].under != equal {
			t.Fatalf("pass %d: hit did not rebind the entry to the live manager", ep)
		}
		changed := equal.Clone()
		changed.ObserveAt(0, 1, 0)
		if m.hit(ep, ords, changed) || m[ep].under != equal {
			t.Fatalf("pass %d: entry served after its rater's record changed", ep)
		}
		if m.hit(ep, []uint32{0, 0}, equal) {
			t.Fatalf("pass %d: entry served for a different prefix length", ep)
		}
	}
}

// TestRecopiedPassDropsStaleMemo: a product cached under header H, seen
// once as a copy (a new header, the same content), and then seen again
// under H with its series unchanged must not replay the entries recorded
// before the recopied pass, whose raters' trust has since moved.
func TestRecopiedPassDropsStaleMemo(t *testing.T) {
	for _, seed := range []uint64{3, 8, 21} {
		d := testDataset(t, seed, 4, 150)
		eng := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
		st := NewState()
		mustResume(t, eng, st, d)

		// A burst from p1's raters lands on p0: their trust moves, while
		// p1's series, and so its header, stays the same.
		rng := stats.NewRNG(seed)
		p1 := d.Products[1].Ratings
		for i := 0; i < 15; i++ {
			r := dataset.Rating{
				Day:   40 + rng.Float64()*20,
				Value: 0.5,
				Rater: p1[rng.IntN(len(p1))].Rater,
			}
			if err := touch(d, d.Products[0].ID, r); err != nil {
				t.Fatal(err)
			}
		}
		want := reference(t, d)
		requireEqualResults(t, fmt.Sprintf("seed %d recopied", seed),
			mustResume(t, eng, st, recopied(d)), want)
		requireEqualResults(t, fmt.Sprintf("seed %d under H again", seed),
			mustResume(t, eng, st, d), want)
	}
}

// TestCancelledRecopiedPassDropsStaleMemo is the H → copy → H case for a
// product the recopied pass never analyzes: p1 rates only from epoch 3
// on, and the recopied view drops it. That pass completes epoch 3 and is
// cancelled in epoch 4, before the final pass reaches p1. p1's memo must
// already be empty: intern drops it at the start of the pass.
func TestCancelledRecopiedPassDropsStaleMemo(t *testing.T) {
	const horizon = 150.0
	eng := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
	for _, seed := range []uint64{3, 8, 21} {
		d := testDataset(t, seed, 4, horizon)
		p1 := &d.Products[1]
		p1.Ratings = p1.Ratings.Between(90, horizon)
		view := recopied(d)
		view.Products[1].Ratings = nil
		for budget := 1; ; budget++ {
			if budget > 1000 {
				t.Fatalf("seed %d: no budget cancels the recopied pass in epoch 4", seed)
			}
			st := NewState()
			mustResume(t, eng, st, d)
			if _, err := eng.Resume(newCountingCtx(budget), st, view); err == nil || st.CompletedEpochs() != 4 {
				continue
			}
			if n := st.prods[1].memo.drop(); n != 0 {
				t.Fatalf("seed %d: %s kept %d memo entries through a recopied pass", seed, p1.ID, n)
			}
			requireEqualResults(t, fmt.Sprintf("seed %d under H again", seed),
				mustResume(t, eng, st, d), reference(t, d))
			break
		}
	}
}
