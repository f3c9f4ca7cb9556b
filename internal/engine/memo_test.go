package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/epoch"
	"repro/internal/stats"
	"repro/internal/trust"
)

// versionedTestDataset is testDataset with every product opted into the
// memo plane (Version 1, the way internal/store births its products).
func versionedTestDataset(t testing.TB, seed uint64, products int, horizon float64) *dataset.Dataset {
	t.Helper()
	d := testDataset(t, seed, products, horizon)
	for i := range d.Products {
		d.Products[i].Version = 1
	}
	return d
}

// touch applies one rating to a product the way a version-maintaining
// owner (internal/store) would: an Insert (which never mutates the series
// below an earlier view's length) plus a version bump.
func touch(d *dataset.Dataset, st *EvalState, product string, r dataset.Rating) error {
	p, err := d.Product(product)
	if err != nil {
		return err
	}
	p.Ratings = p.Ratings.Insert(r)
	p.Version++
	st.Invalidate(r.Day)
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
		d.Products = append(d.Products, dataset.Product{ID: id, Ratings: s, Version: 1})
	}
	return d
}

// TestMemoMatchesUnmemoizedProperty is the tentpole equivalence property:
// a memoized incremental engine fed an out-of-order submit schedule stays
// bit-identical to both a memo-off incremental engine and a memo-off cold
// evaluation at every step.
func TestMemoMatchesUnmemoizedProperty(t *testing.T) {
	const horizon = 150.0
	for _, seed := range []uint64{7, 19} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := stats.NewRNG(seed)
			base := testDataset(t, seed, 3, horizon)
			live := &dataset.Dataset{HorizonDays: horizon}
			type pending struct {
				product string
				r       dataset.Rating
			}
			var backlog []pending
			for _, p := range base.Products {
				var keep dataset.Series
				for _, r := range p.Ratings {
					if rng.Float64() < 0.5 {
						keep = append(keep, r)
					} else {
						backlog = append(backlog, pending{p.ID, r})
					}
				}
				live.Products = append(live.Products,
					dataset.Product{ID: p.ID, Ratings: keep.Clone(), Version: 1})
			}
			rng.Shuffle(len(backlog), func(i, j int) { backlog[i], backlog[j] = backlog[j], backlog[i] })

			memoOn := &Engine{Detect: detect.DefaultConfig()}
			memoOff := &Engine{Detect: detect.DefaultConfig(), DisableMemo: true}
			cold := &Engine{Detect: detect.DefaultConfig(), DisableMemo: true}
			stOn, stOff := NewState(), NewState()
			requireEqualResults(t, "initial",
				mustResume(t, memoOn, stOn, live), mustResume(t, memoOff, stOff, live))

			for batch := 0; len(backlog) > 0; batch++ {
				n := 1 + rng.IntN(8)
				if n > len(backlog) {
					n = len(backlog)
				}
				for _, ins := range backlog[:n] {
					if err := touch(live, stOn, ins.product, ins.r); err != nil {
						t.Fatal(err)
					}
					stOff.Invalidate(ins.r.Day)
				}
				backlog = backlog[n:]
				resOn := mustResume(t, memoOn, stOn, live)
				resOff := mustResume(t, memoOff, stOff, live)
				requireEqualResults(t, fmt.Sprintf("%d ratings left", len(backlog)), resOn, resOff)
				if batch%5 == 0 || len(backlog) == 0 {
					requireEqualResults(t, fmt.Sprintf("cold, %d ratings left", len(backlog)),
						resOn, mustEvaluate(t, cold, live))
				}
			}
		})
	}
}

// TestMemoCancelledMidEpochEquivalence pins the memo plane's cancellation
// contract: cancelling a resume that mixes cache hits with fresh analysis
// commits no partial memo state — the follow-up resume is bit-exact with a
// memo-off evaluation of the same data.
func TestMemoCancelledMidEpochEquivalence(t *testing.T) {
	d := versionedTestDataset(t, 11, 12, 360)
	memoOff := &Engine{Detect: detect.DefaultConfig(), Workers: 1, DisableMemo: true}
	eng := &Engine{Detect: detect.DefaultConfig(), Workers: 1}

	// Cold starts: the memo records entries while being cancelled at a
	// spread of points.
	want := mustEvaluate(t, memoOff, d)
	for _, budget := range []int{1, 3, 7, 20, 50, 200} {
		st := NewState()
		res, err := eng.Resume(newCountingCtx(budget), st, d)
		if err == nil {
			requireEqualResults(t, "uncancelled cold run", res, want)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("budget %d: err = %v, want context.Canceled", budget, err)
		}
		if res != nil {
			t.Fatalf("budget %d: cancelled Resume returned a result", budget)
		}
		requireEqualResults(t, "resume after cold cancel", mustResume(t, eng, st, d), want)
	}

	// Warm starts: a fully warmed memo, one product touched mid-history,
	// then cancellation during the hit/miss replay of the dirty suffix.
	for _, budget := range []int{1, 2, 4, 9, 30, 400} {
		st := NewState()
		mustResume(t, eng, st, d)
		r := dataset.Rating{Day: 150 + float64(budget%100), Value: 1,
			Rater: fmt.Sprintf("late-%d", budget)}
		if err := touch(d, st, d.Products[0].ID, r); err != nil {
			t.Fatal(err)
		}
		want = mustEvaluate(t, memoOff, d)
		res, err := eng.Resume(newCountingCtx(budget), st, d)
		if err == nil {
			requireEqualResults(t, "uncancelled warm run", res, want)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("warm budget %d: err = %v, want context.Canceled", budget, err)
		}
		requireEqualResults(t, "resume after warm cancel", mustResume(t, eng, st, d), want)
	}
}

// TestMemoCountersSingleProductTouch is the deterministic counting
// contract behind the /inspect counters: on a warmed state, submitting one
// rating to one product must miss exactly that product (once in the dirty
// epoch, once in the final pass), replay every other product from cache,
// and drop exactly the touched product's cached entries.
func TestMemoCountersSingleProductTouch(t *testing.T) {
	d := disjointDataset(4, 8, 90) // 3 epochs, 4 products, disjoint raters
	eng := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
	st := NewState()
	mustResume(t, eng, st, d)

	before := Stats()
	p := &d.Products[2]
	p.Ratings = p.Ratings.Insert(dataset.Rating{Day: 75, Value: 1, Rater: "p2-late"})
	p.Version++
	st.Invalidate(75)
	mustResume(t, eng, st, d)
	after := Stats()

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

// TestMemoPureReplayAfterInvalidate: invalidating mid-history without any
// data change must resume entirely from cache — zero detector analyses —
// and still return the bit-exact result.
func TestMemoPureReplayAfterInvalidate(t *testing.T) {
	d := versionedTestDataset(t, 23, 6, 360)
	eng := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
	st := NewState()
	want := mustResume(t, eng, st, d)

	st.Invalidate(180) // drop half the checkpoints, change nothing
	before := Stats()
	got := mustResume(t, eng, st, d)
	after := Stats()
	requireEqualResults(t, "pure replay", got, want)
	if n := after.Analyzed - before.Analyzed; n != 0 {
		t.Errorf("pure replay ran %d detector analyses, want 0", n)
	}
	if after.MemoMisses != before.MemoMisses {
		t.Errorf("pure replay missed %d times", after.MemoMisses-before.MemoMisses)
	}
}

// TestFingerprintCollisionNeverServed runs the equivalence property with
// the trust fingerprint masked down to zero bits — every lookup collides —
// and requires bit-identical output anyway: the exact record verification
// must reject every stale entry, so a hash collision can cost a miss but
// never an answer.
func TestFingerprintCollisionNeverServed(t *testing.T) {
	old := memoFPMask
	memoFPMask = 0
	defer func() { memoFPMask = old }()

	const horizon = 150.0
	rng := stats.NewRNG(41)
	d := versionedTestDataset(t, 41, 3, horizon)
	memoOn := &Engine{Detect: detect.DefaultConfig()}
	memoOff := &Engine{Detect: detect.DefaultConfig(), DisableMemo: true}
	st := NewState()
	requireEqualResults(t, "initial", mustResume(t, memoOn, st, d), mustEvaluate(t, memoOff, d))
	for i := 0; i < 12; i++ {
		p := d.Products[rng.IntN(len(d.Products))].ID
		r := dataset.Rating{
			Day:   rng.Float64() * horizon,
			Value: dataset.QuantizeHalfStar(rng.Float64() * 5),
			Rater: fmt.Sprintf("fuzz-%d", i),
		}
		if err := touch(d, st, p, r); err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, fmt.Sprintf("after touch %d", i),
			mustResume(t, memoOn, st, d), mustEvaluate(t, memoOff, d))
	}
}

// TestEpochHitRejectsStaleTrust unit-tests the verify step directly: an
// entry recorded under one trust state, probed under another whose
// fingerprint is forced to collide, must never be served.
func TestEpochHitRejectsStaleTrust(t *testing.T) {
	old := memoFPMask
	memoFPMask = 0
	defer func() { memoFPMask = old }()

	seen := dataset.Series{{Day: 1, Value: 2, Rater: "a"}}
	counts := []raterFold{{rater: "a", n: 1}}
	mgr1 := trust.NewManager()
	m := &productMemo{version: 1, epochs: make([]memoEntry, 1)}
	m.setEpoch(0, newEpochEntry(1, seen, prefixSignals{}, mgr1, counts, []bool{false}))

	mgr2 := trust.NewManager()
	mgr2.Observe("a", 5, 3)
	if _, _, ok := m.epochHit(0, 1, mgr2, false); ok {
		t.Fatal("colliding stale-trust entry was served")
	}
	if got, _, ok := m.epochHit(0, 1, mgr1, false); !ok || len(got) != 1 || got[0] != counts[0] {
		t.Fatalf("matching entry not served: %v %v", got, ok)
	}
	if _, _, ok := m.epochHit(0, 2, mgr1, false); ok {
		t.Fatal("entry served for a different prefix length")
	}
}

// TestMemoOffStateInterleaving: a state may be driven alternately by
// memo-on and memo-off engines (same Detect config); the memo-off runs
// must not poison the cache's sameness bookkeeping.
func TestMemoOffStateInterleaving(t *testing.T) {
	const horizon = 150.0
	d := versionedTestDataset(t, 29, 3, horizon)
	on := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
	off := &Engine{Detect: detect.DefaultConfig(), Workers: 1, DisableMemo: true}
	ref := &Engine{Detect: detect.DefaultConfig(), DisableMemo: true}
	st := NewState()
	mustResume(t, on, st, d)
	for i, eng := range []*Engine{off, on, off, on} {
		r := dataset.Rating{Day: 40 + 25*float64(i), Value: 1, Rater: fmt.Sprintf("x%d", i)}
		if err := touch(d, st, d.Products[i%len(d.Products)].ID, r); err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, fmt.Sprintf("interleave %d", i),
			mustResume(t, eng, st, d), mustEvaluate(t, ref, d))
	}
}
