package engine

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/epoch"
)

// addRating merges one rating into a live dataset's product, as a new
// series: the server's submit path.
func addRating(t *testing.T, d *dataset.Dataset, product string, r dataset.Rating) {
	t.Helper()
	p, err := d.Product(product)
	if err != nil {
		t.Fatal(err)
	}
	p.Ratings = p.Ratings.Merge(dataset.Series{r})
}

// Ratings at exactly day 0 belong to epoch 0 and must flow through the
// incremental path bit-exactly.
func TestBoundaryDayZeroRating(t *testing.T) {
	const horizon = 90.0
	d := testDataset(t, 21, 2, horizon)
	eng := &Engine{Detect: detect.DefaultConfig()}
	st := NewState()
	mustResume(t, eng, st, d)

	addRating(t, d, d.Products[0].ID, dataset.Rating{Day: 0, Value: 3, Rater: "dayzero"})
	res, first := resumeRerun(t, eng, st, d)
	if first != 0 {
		t.Errorf("day-0 insert must re-run every epoch: first re-run epoch = %d", first)
	}
	cold := &Engine{Detect: detect.DefaultConfig()}
	requireEqualResults(t, "day-0 rating", res, mustEvaluate(t, cold, d))
}

// A horizon that is an exact 30-day multiple must close its last epoch with
// no empty trailing period, and resumption must agree with a cold run.
func TestBoundaryExactMultipleHorizon(t *testing.T) {
	for _, horizon := range []float64{epoch.PeriodDays, 2 * epoch.PeriodDays, 4 * epoch.PeriodDays} {
		d := testDataset(t, 31, 2, horizon)
		eng := &Engine{Detect: detect.DefaultConfig()}
		st := NewState()
		res := mustResume(t, eng, st, d)
		want := int(horizon / epoch.PeriodDays)
		if got := st.CompletedEpochs(); got != want {
			t.Errorf("horizon %v: CompletedEpochs = %d, want %d", horizon, got, want)
		}
		for id, scores := range res.Table {
			if len(scores) != want {
				t.Errorf("horizon %v: product %s has %d periods, want %d", horizon, id, len(scores), want)
			}
		}
		cold := &Engine{Detect: detect.DefaultConfig()}
		requireEqualResults(t, "exact-multiple horizon", res, mustEvaluate(t, cold, d))
	}
}

// A single-epoch history (horizon == PeriodDays) is the degenerate case of
// the checkpoint scheme: exactly one checkpointed epoch, and every insert
// re-runs it.
func TestBoundarySingleEpochHistory(t *testing.T) {
	d := testDataset(t, 41, 2, epoch.PeriodDays)
	eng := &Engine{Detect: detect.DefaultConfig()}
	st := NewState()
	mustResume(t, eng, st, d)
	if got := st.CompletedEpochs(); got != 1 {
		t.Fatalf("CompletedEpochs = %d, want 1", got)
	}
	addRating(t, d, d.Products[1].ID, dataset.Rating{Day: 15, Value: 4.5, Rater: "mid"})
	res, first := resumeRerun(t, eng, st, d)
	if first != 0 {
		t.Errorf("mid-epoch insert: first re-run epoch = %d, want 0", first)
	}
	cold := &Engine{Detect: detect.DefaultConfig()}
	requireEqualResults(t, "single epoch", res, mustEvaluate(t, cold, d))
}

// A rating submitted at exactly day 30.0 lands in epoch 1 ([30, 60)), so
// the epoch-0 run must be kept while every later epoch re-runs — and the
// resumed result must still match a cold run.
func TestBoundarySubmitOnCheckpoint(t *testing.T) {
	const horizon = 120.0
	d := testDataset(t, 51, 3, horizon)
	eng := &Engine{Detect: detect.DefaultConfig()}
	st := NewState()
	mustResume(t, eng, st, d)
	n := epoch.Periods(horizon)
	if got := st.CompletedEpochs(); got != n {
		t.Fatalf("CompletedEpochs = %d, want %d", got, n)
	}

	addRating(t, d, d.Products[0].ID,
		dataset.Rating{Day: epoch.PeriodDays, Value: 1, Rater: "boundary"})
	res, first := resumeRerun(t, eng, st, d)
	if first != 1 {
		t.Errorf("submit at day 30.0: first re-run epoch = %d, want 1 (epoch 0 must be kept)", first)
	}
	cold := &Engine{Detect: detect.DefaultConfig()}
	requireEqualResults(t, "submit on checkpoint", res, mustEvaluate(t, cold, d))

	// The last representable day before the boundary belongs to epoch 0 and
	// must re-run it too.
	addRating(t, d, d.Products[1].ID,
		dataset.Rating{Day: 29.999999, Value: 2, Rater: "justbefore"})
	res, first = resumeRerun(t, eng, st, d)
	if first != 0 {
		t.Errorf("submit just before day 30: first re-run epoch = %d, want 0", first)
	}
	requireEqualResults(t, "submit before checkpoint", res, mustEvaluate(t, cold, d))
}
