package agg

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/epoch"
	"repro/internal/stats"
	"repro/internal/trust"
)

// BFScheme is the beta-function filtering defense of Whitby, Jøsang &
// Indulska — the representative majority-rule scheme of Section V-A. Within
// each 30-day period, ratings far from the majority opinion are iteratively
// removed; removals feed each rater's F count and survivals the S count, and
// the period aggregate is the trust-weighted mean of the surviving ratings
// with beta trust T = (S+1)/(S+F+2).
type BFScheme struct {
	// DeviationFactor is how many (sample) standard deviations from the
	// period median a rating may sit before it is filtered (default
	// 1.75). Because the scale estimate uses the contaminated period
	// itself, unfair ratings with even moderate variance inflate it and
	// hide inside the radius — exactly the majority-rule weakness Section
	// V-B reports ("when the overall rating values have a large
	// variation, it is difficult to judge whether some specific rating
	// values are far from the majority's opinion").
	DeviationFactor float64
	// MinRadius floors the filter radius in rating points so that quiet
	// honest periods do not filter themselves (default 3.2).
	MinRadius float64
	// MaxIterations bounds the filter loop (default 8).
	MaxIterations int
}

var _ Scheme = (*BFScheme)(nil)

// NewBFScheme returns a BF-scheme with the default parameters.
func NewBFScheme() *BFScheme {
	return &BFScheme{DeviationFactor: 1.75, MinRadius: 3.2, MaxIterations: 8}
}

// Name implements Scheme.
func (*BFScheme) Name() string { return "BF" }

// Aggregates implements Scheme.
func (b *BFScheme) Aggregates(d *dataset.Dataset) Table {
	mgr := trust.NewManager()
	n := Periods(d.HorizonDays)
	out := make(Table, len(d.Products))
	for _, p := range d.Products {
		out[p.ID] = make([]float64, n)
	}
	// Periods are processed in time order so trust accumulates causally.
	for i := 0; i < n; i++ {
		lo, hi := PeriodInterval(i, d.HorizonDays)
		for _, p := range d.Products {
			period := p.Ratings.Between(lo, hi)
			if len(period) == 0 {
				out[p.ID][i] = math.NaN()
				continue
			}
			kept := b.filter(period)
			updatePeriodTrust(mgr, period, kept)
			out[p.ID][i] = weightedMean(period, kept, func(r string) float64 {
				return mgr.Trust(r)
			})
		}
	}
	return out
}

// filter returns a keep-mask over the period's ratings after iterative
// majority filtering.
func (b *BFScheme) filter(period dataset.Series) []bool {
	kept := make([]bool, len(period))
	for i := range kept {
		kept[i] = true
	}
	for iter := 0; iter < b.MaxIterations; iter++ {
		var vals []float64
		for i, r := range period {
			if kept[i] {
				vals = append(vals, r.Value)
			}
		}
		if len(vals) < 3 {
			break
		}
		center := stats.Median(vals)
		radius := math.Max(b.DeviationFactor*stats.SampleStdDev(vals), b.MinRadius)
		removed := false
		for i, r := range period {
			if !kept[i] {
				continue
			}
			if math.Abs(r.Value-center) > radius {
				kept[i] = false
				removed = true
			}
		}
		if !removed {
			break
		}
	}
	return kept
}

// weightedMean aggregates the kept ratings of a period with the given
// per-rater weight function; see epoch.WeightedMean for the fallback rules.
func weightedMean(period dataset.Series, kept []bool, weight func(string) float64) float64 {
	return epoch.WeightedMean(period, kept, func(i int) float64 { return weight(period[i].Rater) })
}
