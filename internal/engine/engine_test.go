package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
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

func mustResume(t *testing.T, e *Engine, st *EvalState, d *dataset.Dataset) *Result {
	t.Helper()
	res, err := e.Resume(context.Background(), st, d)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	return res
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

// Parallel evaluation must be bit-exact with serial evaluation: within an
// epoch no product's analysis feeds another, and the trust fold only
// consumes integer counts.
func TestParallelMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		d := testDataset(t, seed, 6, 150)
		serial := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
		for _, w := range []int{2, runtime.GOMAXPROCS(0), 16} {
			par := &Engine{Detect: detect.DefaultConfig(), Workers: w}
			requireEqualResults(t, fmt.Sprintf("seed %d workers %d", seed, w),
				mustEvaluate(t, par, d), mustEvaluate(t, serial, d))
		}
	}
}

// Resuming from checkpoints after interleaved insertions must be bit-exact
// with a cold evaluation of the final dataset — the engine's core
// correctness claim. Days are drawn at random, so insertions routinely land
// before already-evaluated epochs (out-of-order arrival) and must
// invalidate the mid-history checkpoints they touch.
func TestIncrementalMatchesColdProperty(t *testing.T) {
	const horizon = 150.0
	for _, seed := range []uint64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := stats.NewRNG(seed)
			base := testDataset(t, seed, 3, horizon)
			// Live dataset starts with roughly half of each product's
			// history; the rest arrives interleaved, in random order.
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
				live.Products = append(live.Products, dataset.Product{ID: p.ID, Ratings: keep.Clone()})
			}
			rng.Shuffle(len(backlog), func(i, j int) { backlog[i], backlog[j] = backlog[j], backlog[i] })

			eng := &Engine{Detect: detect.DefaultConfig()}
			cold := &Engine{Detect: detect.DefaultConfig()}
			st := NewState()
			res := mustResume(t, eng, st, live)
			requireEqualResults(t, "initial", res, mustEvaluate(t, cold, live))

			for batch := 0; len(backlog) > 0; batch++ {
				// Apply a random-sized batch of pending ratings.
				n := 1 + rng.IntN(8)
				if n > len(backlog) {
					n = len(backlog)
				}
				for _, ins := range backlog[:n] {
					p, err := live.Product(ins.product)
					if err != nil {
						t.Fatal(err)
					}
					p.Ratings = p.Ratings.Merge(dataset.Series{ins.r})
					st.Invalidate(ins.r.Day)
				}
				backlog = backlog[n:]
				res = mustResume(t, eng, st, live)
				// The incremental state must stay consistent through every
				// batch; the (expensive) cold reference runs on a sample of
				// batches plus the final state.
				if batch%5 == 0 || len(backlog) == 0 {
					requireEqualResults(t, fmt.Sprintf("%d ratings left", len(backlog)),
						res, mustEvaluate(t, cold, live))
				}
			}
			if got, want := st.CompletedEpochs(), epoch.Periods(horizon); got != want {
				t.Errorf("CompletedEpochs = %d, want %d", got, want)
			}
		})
	}
}

// Invalidate must drop exactly the epochs at or after the given day.
func TestInvalidate(t *testing.T) {
	d := testDataset(t, 5, 2, 150)
	eng := &Engine{Detect: detect.DefaultConfig()}
	st := NewState()
	mustResume(t, eng, st, d)
	n := epoch.Periods(150) // 5
	if st.CompletedEpochs() != n {
		t.Fatalf("CompletedEpochs = %d, want %d", st.CompletedEpochs(), n)
	}
	st.Invalidate(200) // past the horizon: nothing to drop
	if st.CompletedEpochs() != n {
		t.Errorf("Invalidate(past horizon) dropped epochs: %d", st.CompletedEpochs())
	}
	st.Invalidate(95) // epoch 3: epochs 3,4 drop
	if st.CompletedEpochs() != 3 {
		t.Errorf("Invalidate(95): CompletedEpochs = %d, want 3", st.CompletedEpochs())
	}
	st.Invalidate(100) // later day, already-invalid suffix: no-op
	if st.CompletedEpochs() != 3 {
		t.Errorf("Invalidate(100) after Invalidate(95): CompletedEpochs = %d, want 3", st.CompletedEpochs())
	}
	st.Invalidate(-4) // defensive: clamps to epoch 0
	if st.CompletedEpochs() != 0 {
		t.Errorf("Invalidate(-4): CompletedEpochs = %d, want 0", st.CompletedEpochs())
	}
	requireEqualResults(t, "after full invalidation", mustResume(t, eng, st, d), mustEvaluate(t, eng, d))
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
	if !st.Matches(rebuilt) {
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
	if st.Matches(horizonChanged) {
		t.Error("state matches a dataset with a different horizon")
	}
	reordered := d.Clone()
	reordered.Products[0], reordered.Products[1] = reordered.Products[1], reordered.Products[0]
	if st.Matches(reordered) {
		t.Error("state matches a dataset with reordered products")
	}
	if NewState().Matches(d) {
		t.Error("fresh state (no checkpoints) claims to match")
	}
}
