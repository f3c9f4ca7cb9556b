package detect

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

const testHorizon = 150.0

// fairSeries generates one product's honest ratings with the default
// challenge-like configuration.
func fairSeries(t *testing.T, seed uint64) dataset.Series {
	t.Helper()
	cfg := dataset.DefaultFairConfig()
	cfg.Products = 1
	cfg.HorizonDays = testHorizon
	d, err := dataset.GenerateFair(stats.NewRNG(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d.Products[0].Ratings
}

// blockAttack builds n unfair ratings uniformly spread over [start, end)
// with Gaussian values (mean, sigma) clamped to the rating range.
func blockAttack(rng *rand.Rand, start, end float64, n int, mean, sigma float64) dataset.Series {
	out := make(dataset.Series, n)
	for i := 0; i < n; i++ {
		v := stats.Clamp(mean+rng.NormFloat64()*sigma, dataset.MinValue, dataset.MaxValue)
		out[i] = dataset.Rating{
			Day:    start + (end-start)*float64(i)/float64(n) + rng.Float64()*0.3,
			Value:  dataset.QuantizeHalfStar(v),
			Rater:  fmt.Sprintf("atk%03d", i),
			Unfair: true,
		}
	}
	out.Sort()
	return out
}

// attacked merges a block attack into a fair series.
func attacked(t *testing.T, seed uint64, start, end float64, n int, mean, sigma float64) dataset.Series {
	t.Helper()
	fair := fairSeries(t, seed)
	atk := blockAttack(stats.NewRNG(seed+1000), start, end, n, mean, sigma)
	return fair.Merge(atk)
}

// recallPrecision scores marked ratings against the ground-truth labels.
func recallPrecision(s dataset.Series, suspicious []bool) (recall, precision float64) {
	var tp, fp, fn int
	for i, r := range s {
		switch {
		case r.Unfair && suspicious[i]:
			tp++
		case !r.Unfair && suspicious[i]:
			fp++
		case r.Unfair && !suspicious[i]:
			fn++
		}
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	return recall, precision
}

// analyze runs the whole detector stack on s the way cmd/detectors does:
// SeriesSignals and ArrivalSignals through one fresh Prefix on scratch sc,
// then Decide under ts. The Prefix's Curves are the series' curves.
func analyze(s dataset.Series, horizon float64, cfg Config, ts TrustSource, sc *Scratch) (Signals, Decision, *Prefix) {
	p := new(Prefix)
	sig := SeriesSignals(s, cfg, sc, p)
	sig.HARC, sig.LARC = ArrivalSignals(s, horizon, cfg, sc, p)
	return sig, Decide(s, sig, cfg, ts), p
}

// prefixCurves returns p.Curves as an array: MC, H-ARC, L-ARC, HC, ME.
func prefixCurves(p *Prefix, cfg Config) (c [5]Curve) {
	c[0], c[1], c[2], c[3], c[4] = p.Curves(cfg)
	return c
}

// arcKernel runs one band of the ARC detector over [0, horizon) from an
// empty carry, as ArrivalSignals does for H-ARC and L-ARC, and returns its
// signals and curve. It also reaches AllRatings, the plain ARC detector.
func arcKernel(s dataset.Series, horizon float64, band ARCBand, cfg Config) (ARCSignals, Curve) {
	ta, tb := BandThresholds(s.Mean())
	n := horizonDays(horizon)
	days := curveDays(curvePoints(n))
	var c arcCarry
	sig := arcBand(NewScratch(), s, n, band, ta, tb, cfg, &c, days)
	return sig, Curve{X: days, Y: c.y}
}

// countMarks returns the number of ratings marked suspicious.
func countMarks(marks []bool) int {
	n := 0
	for _, m := range marks {
		if m {
			n++
		}
	}
	return n
}

// suspiciousSegments returns the intervals of the suspicious MC segments.
func suspiciousSegments(segs []MCSegment) []Interval {
	var out []Interval
	for _, seg := range segs {
		if seg.Suspicious {
			out = append(out, seg.Interval)
		}
	}
	return out
}
