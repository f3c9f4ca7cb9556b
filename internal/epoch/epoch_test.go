package epoch

import (
	"math"
	"testing"

	"repro/internal/dataset"
)

func TestPeriods(t *testing.T) {
	tests := []struct {
		horizon float64
		want    int
	}{
		{-30, 0},              // negative horizon: no periods
		{0, 0},                // empty horizon
		{1e-9, 1},             // any positive sliver opens period 0
		{1, 1},                // partial first period
		{PeriodDays, 1},       // exactly one epoch: no empty trailing period
		{PeriodDays + 0.5, 2}, // just past the boundary
		{2 * PeriodDays, 2},   // exact 30-day multiple
		{3 * PeriodDays, 3},   // exact 30-day multiple
		{10*PeriodDays - 1, 10},
	}
	for _, tt := range tests {
		if got := Periods(tt.horizon); got != tt.want {
			t.Errorf("Periods(%v) = %d, want %d", tt.horizon, got, tt.want)
		}
	}
}

func TestPeriodIntervalEdges(t *testing.T) {
	tests := []struct {
		i                  int
		horizon            float64
		wantStart, wantEnd float64
	}{
		{0, 45, 0, 30},  // full first period
		{1, 45, 30, 45}, // trailing partial period clamps to horizon
		{0, 30, 0, 30},  // single-epoch history: exact boundary, no clamp
		{1, 60, 30, 60}, // exact multiple: last period is full
		{2, 60, 60, 60}, // one-past-the-end period is empty
		{0, 10, 0, 10},  // horizon shorter than one period
		{2, 3 * PeriodDays, 2 * PeriodDays, 3 * PeriodDays}, // exact multiple, last period
	}
	for _, tt := range tests {
		start, end := PeriodInterval(tt.i, tt.horizon)
		if start != tt.wantStart || end != tt.wantEnd {
			t.Errorf("PeriodInterval(%d, %v) = [%v, %v), want [%v, %v)",
				tt.i, tt.horizon, start, end, tt.wantStart, tt.wantEnd)
		}
	}
}

// TestPeriodOfBoundaries pins the day→epoch mapping at the exact points the
// engine's checkpoint invalidation depends on: a rating landing precisely on
// a 30-day boundary belongs to the *later* epoch ([start, end) intervals),
// so the earlier epoch's trust checkpoint stays valid.
func TestPeriodOfBoundaries(t *testing.T) {
	const horizon = 3 * PeriodDays // 3 epochs
	tests := []struct {
		day  float64
		want int
	}{
		{0, 0},                             // day 0 opens epoch 0
		{-5, 0},                            // negative days clamp to epoch 0
		{math.NaN(), 0},                    // NaN clamps to epoch 0 (recompute everything)
		{math.Nextafter(PeriodDays, 0), 0}, // one ulp before the boundary
		{PeriodDays, 1},                    // exactly on the boundary → later epoch
		{math.Nextafter(PeriodDays, 31), 1},
		{2 * PeriodDays, 2}, // second boundary
		{horizon - 1, 2},    // late but inside
		{horizon, 3},        // at the horizon → one-past-the-end
		{horizon + 100, 3},  // beyond the horizon clamps
		{math.Inf(1), 3},    // +Inf clamps to one-past-the-end
	}
	for _, tt := range tests {
		if got := PeriodOf(tt.day, horizon); got != tt.want {
			t.Errorf("PeriodOf(%v, %v) = %d, want %d", tt.day, horizon, got, tt.want)
		}
	}
}

// TestPeriodOfSingleEpoch covers the degenerate single-epoch history: every
// in-range day maps to epoch 0 and the horizon itself to 1.
func TestPeriodOfSingleEpoch(t *testing.T) {
	for _, day := range []float64{0, 1, 15, math.Nextafter(PeriodDays, 0)} {
		if got := PeriodOf(day, PeriodDays); got != 0 {
			t.Errorf("PeriodOf(%v, %v) = %d, want 0", day, PeriodDays, got)
		}
	}
	if got := PeriodOf(PeriodDays, PeriodDays); got != 1 {
		t.Errorf("PeriodOf(horizon, horizon) = %d, want 1", got)
	}
}

// TestIntervalsTileHorizon checks that consecutive period intervals tile
// [0, horizon) exactly, with PeriodOf assigning boundary days to the
// interval that starts there.
func TestIntervalsTileHorizon(t *testing.T) {
	for _, horizon := range []float64{10, PeriodDays, 45, 2 * PeriodDays, 100, 3*PeriodDays + 1e-9} {
		n := Periods(horizon)
		var prevEnd float64
		for i := 0; i < n; i++ {
			start, end := PeriodInterval(i, horizon)
			if start != prevEnd {
				t.Errorf("horizon %v: period %d starts at %v, previous ended at %v", horizon, i, start, prevEnd)
			}
			if end > horizon {
				t.Errorf("horizon %v: period %d ends at %v past the horizon", horizon, i, end)
			}
			if i == n-1 && end != horizon {
				t.Errorf("horizon %v: last period ends at %v, want horizon", horizon, end)
			}
			if start < horizon {
				if got := PeriodOf(start, horizon); got != i {
					t.Errorf("horizon %v: PeriodOf(start of %d) = %d", horizon, i, got)
				}
			}
			prevEnd = end
		}
	}
}

func TestWeightedMeanFallbacks(t *testing.T) {
	period := dataset.Series{
		{Day: 1, Value: 2, Rater: "a"},
		{Day: 2, Value: 4, Rater: "b"},
		{Day: 3, Value: 5, Rater: "c"},
	}
	unit := func(int) float64 { return 1 }

	// Weighted path: rater b carries all the weight.
	got := WeightedMean(period, nil, func(i int) float64 {
		if period[i].Rater == "b" {
			return 2
		}
		return 0
	})
	if got != 4 {
		t.Errorf("weighted mean = %v, want 4", got)
	}

	// All weights vanish → simple mean of the kept ratings.
	got = WeightedMean(period, []bool{true, false, true}, func(int) float64 { return 0 })
	if got != 3.5 {
		t.Errorf("zero-weight fallback = %v, want 3.5", got)
	}

	// Everything filtered → simple mean of the whole period.
	got = WeightedMean(period, []bool{false, false, false}, unit)
	if want := period.Mean(); got != want {
		t.Errorf("all-filtered fallback = %v, want %v", got, want)
	}

	// nil kept keeps everything.
	got = WeightedMean(period, nil, unit)
	if want := period.Mean(); got != want {
		t.Errorf("nil kept = %v, want %v", got, want)
	}
}
