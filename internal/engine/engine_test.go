package engine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/epoch"
	"repro/internal/stats"
)

// testDataset builds a fair dataset with an injected low-rating burst so
// the detector stack and trust fold actually fire.
func testDataset(t testing.TB, seed uint64, products int, horizon float64) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultFairConfig()
	cfg.Products = products
	cfg.HorizonDays = horizon
	d, err := dataset.GenerateFair(stats.NewRNG(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A 40-rating downgrade burst against the first product, mid-history.
	rng := stats.NewRNG(seed + 1)
	var atk dataset.Series
	start := horizon * 0.4
	for i := 0; i < 40; i++ {
		atk = append(atk, dataset.Rating{
			Day:   start + rng.Float64()*20,
			Value: dataset.QuantizeHalfStar(0.5 + rng.Float64()),
			Rater: fmt.Sprintf("attacker%d", i),
		})
	}
	if err := d.InjectUnfair(d.Products[0].ID, atk); err != nil {
		t.Fatal(err)
	}
	return d
}

// mustEvaluate and mustResume run the engine under a background context,
// failing the test on the (impossible without cancellation) error path.
func mustEvaluate(t *testing.T, e *Engine, d *dataset.Dataset) *Result {
	t.Helper()
	res, err := e.Evaluate(context.Background(), d)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return res
}

func mustResume(t testing.TB, e *Engine, st *EvalState, d *dataset.Dataset) *Result {
	t.Helper()
	res, err := e.Resume(context.Background(), st, d)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	return res
}

// resumeRerun resumes st on d and also returns the first epoch the Resume
// re-ran. Re-running epoch e appends as checkpoint e+1 a fresh clone of
// checkpoint e, or checkpoint e itself when the epoch has no ratings; a
// kept checkpoint keeps its pointer. The first re-run epoch holds the
// earliest changed rating, before or after the change, so its checkpoint
// e+1 replaces a different pointer either way: a fresh clone if the epoch
// has ratings now, and otherwise checkpoint e where it had ratings before.
// So the first replaced checkpoint names the epoch; every later one re-ran
// too. It returns the epoch count when nothing re-ran.
func resumeRerun(t *testing.T, e *Engine, st *EvalState, d *dataset.Dataset) (*Result, int) {
	t.Helper()
	before := slices.Clone(st.checkpoints)
	res := mustResume(t, e, st, d)
	first := 0
	for first+1 < len(before) && st.checkpoints[first+1] == before[first+1] {
		first++
	}
	return res, first
}

// requireEqualResults fails unless a and b agree bit-for-bit on tables and
// published tables (NaN included), suspicious marks and trust records.
func requireEqualResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	requireEqualTables(t, label, a.Table, b.Table)
	requireEqualTables(t, label+" (published)", a.Published, b.Published)
	for id, am := range a.Suspicious {
		bm := b.Suspicious[id]
		if len(am) != len(bm) {
			t.Fatalf("%s: product %s marks differ in length: %d vs %d", label, id, len(am), len(bm))
		}
		for i := range am {
			if am[i] != bm[i] {
				t.Errorf("%s: product %s rating %d: mark %v vs %v", label, id, i, am[i], bm[i])
			}
		}
	}
	if a.Trust.Len() != b.Trust.Len() {
		t.Fatalf("%s: trust sizes differ: %d vs %d", label, a.Trust.Len(), b.Trust.Len())
	}
	for _, rt := range a.Trust.Snapshot() {
		ra, rb := a.Trust.Record(rt.Rater), b.Trust.Record(rt.Rater)
		if math.Float64bits(ra.S) != math.Float64bits(rb.S) ||
			math.Float64bits(ra.F) != math.Float64bits(rb.F) {
			t.Errorf("%s: rater %s records differ: %+v vs %+v", label, rt.Rater, ra, rb)
		}
	}
}

// requireEqualTables fails unless a and b agree bit-for-bit, NaN included.
func requireEqualTables(t *testing.T, label string, a, b map[string][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: table sizes differ: %d vs %d", label, len(a), len(b))
	}
	for id, as := range a {
		bs, ok := b[id]
		if !ok || len(as) != len(bs) {
			t.Fatalf("%s: product %s tables differ in shape", label, id)
		}
		for i := range as {
			if math.Float64bits(as[i]) != math.Float64bits(bs[i]) {
				t.Errorf("%s: product %s period %d: %v vs %v (bits %x vs %x)",
					label, id, i, as[i], bs[i], math.Float64bits(as[i]), math.Float64bits(bs[i]))
			}
		}
	}
}

// TestLiveStreamMatchesCold resumes one state in the shape of a live
// service: the history stops at mid-horizon and the rest
// streams in forward in day order, in random-sized batches, so the
// trailing epochs are empty and fill one at a time. Every Resume, with the
// memo on and off, must be bit-identical to a cold evaluation, and an
// epoch with no ratings must append its parent checkpoint itself while an
// epoch with ratings never does.
func TestLiveStreamMatchesCold(t *testing.T) {
	const horizon = 300.0
	n := epoch.Periods(horizon)
	for _, seed := range []uint64{3, 11} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := stats.NewRNG(seed)
			base := testDataset(t, seed, 2, horizon)
			live := &dataset.Dataset{HorizonDays: horizon}
			type pending struct {
				product int
				r       dataset.Rating
			}
			var stream []pending
			for i, p := range base.Products {
				mid, _ := p.Ratings.BetweenIndex(horizon/2, horizon)
				live.Products = append(live.Products, dataset.Product{ID: p.ID, Ratings: p.Ratings[:mid].Clone()})
				for _, r := range p.Ratings[mid:] {
					stream = append(stream, pending{i, r})
				}
			}
			slices.SortStableFunc(stream, func(a, b pending) int { return cmp.Compare(a.r.Day, b.r.Day) })

			eng, cold := &Engine{Detect: detect.DefaultConfig()}, &Engine{Detect: detect.DefaultConfig()}
			memoOn, memoOff := NewState(), NewState()
			for batch := 0; ; batch++ {
				want := mustEvaluate(t, cold, live)
				label := fmt.Sprintf("batch %d, %d ratings left", batch, len(stream))
				requireEqualResults(t, label+", memo on", mustResume(t, eng, memoOn, live), want)
				requireEqualResults(t, label+", memo off", mustResume(t, eng, memoOff, recopied(live)), want)
				for ep := 0; ep < n; ep++ {
					lo, hi := epoch.PeriodInterval(ep, horizon)
					rated := false
					for _, p := range live.Products {
						from, to := p.Ratings.BetweenIndex(lo, hi)
						rated = rated || from < to
					}
					for _, st := range []*EvalState{memoOn, memoOff} {
						if shared := st.checkpoints[ep+1] == st.checkpoints[ep]; shared == rated {
							t.Fatalf("%s: epoch %d (has ratings: %v) appends its parent checkpoint: %v", label, ep, rated, shared)
						}
					}
				}
				if len(stream) == 0 {
					break
				}
				k := min(1+rng.IntN(32), len(stream))
				for _, ins := range stream[:k] {
					p := &live.Products[ins.product]
					p.Ratings = p.Ratings.Insert(ins.r)
				}
				stream = stream[k:]
			}
		})
	}
}

// TestChangedEpochsRerun is the dirty-epoch rule Resume works out from
// its inputs: an edit whose earliest changed rating lies on day d re-runs
// exactly the epochs from epoch(d) on, whatever the edit — an insert, a
// value edit, a rater swap or a removal — and a Resume with nothing
// changed, or only a recopied series with identical content, re-runs
// none. Every Resume must still equal a cold evaluation.
func TestChangedEpochsRerun(t *testing.T) {
	const horizon = 150.0
	n := epoch.Periods(horizon) // 5
	d := testDataset(t, 5, 2, horizon)
	eng := &Engine{Detect: detect.DefaultConfig()}
	st := NewState()
	mustResume(t, eng, st, d)
	if st.CompletedEpochs() != n {
		t.Fatalf("CompletedEpochs = %d, want %d", st.CompletedEpochs(), n)
	}
	p := &d.Products[1]
	// at returns the index of p's first rating on or after day.
	at := func(day float64) int {
		i, _ := p.Ratings.BetweenIndex(day, horizon)
		return i
	}
	// Each edit returns the edited series, never written in place,
	// and the day of its earliest changed rating (+Inf for none).
	edits := []struct {
		name string
		edit func(s dataset.Series) (dataset.Series, float64)
	}{
		{"nothing", nil},
		{"identical content", func(s dataset.Series) (dataset.Series, float64) {
			return s.Clone(), math.Inf(1)
		}},
		{"insert on day 95", func(s dataset.Series) (dataset.Series, float64) {
			return s.Insert(dataset.Rating{Day: 95, Value: 4, Rater: "new-95"}), 95
		}},
		{"tail insert", func(s dataset.Series) (dataset.Series, float64) {
			return s.Insert(dataset.Rating{Day: horizon - 1, Value: 1, Rater: "new-tail"}), horizon - 1
		}},
		{"value edit", func(s dataset.Series) (dataset.Series, float64) {
			s, i := s.Clone(), at(65)
			s[i].Value = math.Mod(s[i].Value+1, dataset.MaxValue)
			return s, s[i].Day
		}},
		{"rater swap", func(s dataset.Series) (dataset.Series, float64) {
			s, i := s.Clone(), at(40)
			s[i].Rater = "swapped"
			return s, s[i].Day
		}},
		{"removal", func(s dataset.Series) (dataset.Series, float64) {
			i := at(100)
			return slices.Delete(s.Clone(), i, i+1), s[i].Day
		}},
		{"insert on day 0", func(s dataset.Series) (dataset.Series, float64) {
			return s.Insert(dataset.Rating{Day: 0, Value: 3, Rater: "new-0"}), 0
		}},
	}
	for _, e := range edits {
		want := n
		if e.edit != nil {
			var day float64
			p.Ratings, day = e.edit(p.Ratings)
			want = epoch.PeriodOf(day, horizon)
		}
		res, first := resumeRerun(t, eng, st, d)
		if first != want {
			t.Errorf("%s: first re-run epoch = %d, want %d", e.name, first, want)
		}
		requireEqualResults(t, e.name, res, mustEvaluate(t, eng, d))
	}
}

// A state bound to one dataset identity must transparently reset — not
// reuse bogus checkpoints — when the horizon or product set changes.
func TestStateResetsOnDatasetChange(t *testing.T) {
	d1 := testDataset(t, 9, 3, 150)
	eng := &Engine{Detect: detect.DefaultConfig()}
	st := NewState()
	mustResume(t, eng, st, d1)

	d2 := testDataset(t, 9, 3, 120) // different horizon
	requireEqualResults(t, "horizon change", mustResume(t, eng, st, d2), mustEvaluate(t, eng, d2))

	d3 := testDataset(t, 9, 4, 120) // different product set
	requireEqualResults(t, "product change", mustResume(t, eng, st, d3), mustEvaluate(t, eng, d3))
}

// An empty dataset and empty products must evaluate without panicking.
func TestEvaluateDegenerate(t *testing.T) {
	d := &dataset.Dataset{HorizonDays: 90, Products: []dataset.Product{{ID: "empty"}}}
	eng := &Engine{Detect: detect.DefaultConfig()}
	res := mustEvaluate(t, eng, d)
	scores := res.Table["empty"]
	if len(scores) != epoch.Periods(90) {
		t.Fatalf("scores length = %d, want %d", len(scores), epoch.Periods(90))
	}
	for i, v := range scores {
		if !math.IsNaN(v) {
			t.Errorf("period %d of empty product = %v, want NaN", i, v)
		}
	}
	if len(res.Suspicious["empty"]) != 0 {
		t.Errorf("marks for empty product = %v", res.Suspicious["empty"])
	}
}

// TestMatchesRebuiltDataset pins the content-based identity contract the
// sharded store relies on: the coordinator rebuilds the combined dataset
// from per-shard partitions on every consistent cut, so the engine must
// recognize a rebuilt (content-identical, pointer-distinct) dataset and
// keep resuming from its checkpoints instead of resetting to a cold start.
func TestMatchesRebuiltDataset(t *testing.T) {
	d := testDataset(t, 5, 4, 150)
	eng := &Engine{Detect: detect.DefaultConfig()}
	st := NewState()
	res := mustResume(t, eng, st, d)
	epochs := st.CompletedEpochs()
	if epochs == 0 {
		t.Fatal("no checkpoints after a full evaluation")
	}

	rebuilt := d.Clone()
	if !st.matches(rebuilt) {
		t.Fatal("state does not match a rebuilt content-identical dataset")
	}
	res2 := mustResume(t, eng, st, rebuilt)
	if got := st.CompletedEpochs(); got != epochs {
		t.Fatalf("resume on rebuilt dataset kept %d epochs, want %d (state was reset)", got, epochs)
	}
	requireEqualResults(t, "rebuilt resume", res, res2)

	// The identity is the content: a changed horizon or product order is a
	// different dataset and must not match.
	horizonChanged := d.Clone()
	horizonChanged.HorizonDays += 30
	if st.matches(horizonChanged) {
		t.Error("state matches a dataset with a different horizon")
	}
	reordered := d.Clone()
	reordered.Products[0], reordered.Products[1] = reordered.Products[1], reordered.Products[0]
	if st.matches(reordered) {
		t.Error("state matches a dataset with reordered products")
	}
	if NewState().matches(d) {
		t.Error("fresh state (no checkpoints) claims to match")
	}
}
