// Package epoch holds the 30-day trust-epoch calendar and the Eq. 7
// weighted-mean kernel shared by the aggregation schemes (internal/agg) and
// the incremental evaluation engine (internal/engine). It sits below both so
// the engine does not depend on the scheme layer: agg re-exports the period
// helpers for its public API, and the engine drives them directly.
package epoch

import (
	"math"

	"repro/internal/dataset"
)

// PeriodDays is the aggregation period of the rating challenge (30 days) —
// also the trust-epoch length of Procedure 1.
const PeriodDays = 30.0

// Periods returns the number of (possibly partial) aggregation periods
// covering [0, horizon).
func Periods(horizon float64) int {
	if horizon <= 0 {
		return 0
	}
	return int(math.Ceil(horizon / PeriodDays))
}

// PeriodInterval returns the day range [start, end) of period i.
func PeriodInterval(i int, horizon float64) (start, end float64) {
	start = float64(i) * PeriodDays
	end = start + PeriodDays
	if end > horizon {
		end = horizon
	}
	return start, end
}

// PeriodOf returns the index of the period containing day, clamped to
// [0, Periods(horizon)]: a negative day maps to period 0 and a day at or
// past the horizon maps to the one-past-the-end period.
//
//lint:hotpath
func PeriodOf(day, horizon float64) int {
	if day <= 0 || math.IsNaN(day) {
		return 0
	}
	n := Periods(horizon)
	// Clamp before the float→int conversion: int(+Inf) is implementation-
	// specific (minInt64 on amd64) and would escape an integer-side clamp.
	q := day / PeriodDays
	if q >= float64(n) {
		return n
	}
	return int(q)
}

// WeightedMean aggregates the kept ratings of a period with the given
// per-rating weight function, called with each kept rating's index in
// period. It falls back to the simple mean of the kept ratings when all
// weights vanish, and to the simple mean of the whole period when
// everything was filtered.
func WeightedMean(period dataset.Series, kept []bool, weight func(i int) float64) float64 {
	// keptSum accumulates in series order, so keptSum/keptN is exactly
	// stats.Mean over the kept values without collecting them.
	var num, den, keptSum float64
	keptN := 0
	for i, r := range period {
		if kept != nil && !kept[i] {
			continue
		}
		keptSum += r.Value
		keptN++
		w := weight(i)
		num += w * r.Value
		den += w
	}
	if den > 1e-12 {
		return num / den
	}
	if keptN > 0 {
		return keptSum / float64(keptN)
	}
	return period.Mean()
}
