package detect

import (
	"testing"

	"repro/internal/dataset"
)

// TestMarkBandIntervalBounds puts a rating exactly on an ARC interval's
// Start and one exactly on its End. Both bounds follow Interval.Contains
// (t >= Start && t < End): the Start rating is inside, so markBand marks
// it; the End rating is outside, so it is not marked, and contextMean
// counts it in the context mean.
func TestMarkBandIntervalBounds(t *testing.T) {
	iv := Interval{Start: 10, End: 20}
	s := dataset.Series{
		{Day: 0, Value: 2}, {Day: 1, Value: 2}, {Day: 2, Value: 2}, {Day: 3, Value: 2}, {Day: 4, Value: 2},
		{Day: 10, Value: 5}, // on Start
		{Day: 15, Value: 5},
		{Day: 20, Value: 5}, // on End
		{Day: 25, Value: 2},
	}
	// Outside [10, 20): the five 2s, the 5 on day 20 and the 2 on day 25.
	if got, want := contextMean(s, iv), 17.0/7; got != want {
		t.Fatalf("contextMean = %v, want %v (the rating on End counted, the one on Start not)", got, want)
	}
	marks := make([]bool, len(s))
	markBand(s, iv, &ARCSignals{Band: HighBand, ThresholdA: 4, ThresholdB: 1}, marks)
	want := []bool{false, false, false, false, false, true, true, false, false}
	for i := range marks {
		if marks[i] != want[i] {
			t.Fatalf("markBand marks %v, want %v (day %v)", marks, want, s[i].Day)
		}
	}
}
