package detect

import (
	"math"

	"repro/internal/armodel"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// This file keeps the original straightforward detector loops as unexported
// reference kernels. The shipped kernels (meanchange.go, arrival.go,
// histchange.go, modelerror.go) are incremental sliding-window rewrites that
// must match these bit-for-bit; the randomized equivalence property tests
// and FuzzKernelEquivalence pin that contract (see DESIGN.md §10 for the
// equivalence argument). The reference kernels recompute every window from
// scratch — O(n·w) work and one or more allocations per window — which is
// exactly the cost the incremental kernels eliminate.

// mcCurveRef recomputes both MC half-windows per rating with two binary
// searches and two fresh Values() copies (the original MCCurve).
func mcCurveRef(s dataset.Series, cfg Config) Curve {
	n := len(s)
	c := Curve{X: make([]float64, n), Y: make([]float64, n)}
	half := cfg.MCWindowDays / 2
	for k := 0; k < n; k++ {
		t := s[k].Day
		x1 := s.Between(t-half, t).Values()
		x2 := s.Between(t, t+half).Values()
		sigma2 := stats.PooledVariance(x1, x2, 0.25)
		c.X[k] = t
		c.Y[k] = stats.MeanChangeGLRT(x1, x2, sigma2)
	}
	return c
}

// meanChangeRef is the original MC detector: peaks on mcCurveRef,
// per-segment []float64 and []string materialization, and trust averaged
// by summing Trust over the materialized raters in input order. It returns
// the decided segments.
func meanChangeRef(s dataset.Series, cfg Config, ts TrustSource) []MCSegment {
	if ts == nil {
		ts = NeutralTrust()
	}
	if len(s) == 0 {
		return nil
	}
	curve := mcCurveRef(s, cfg)
	bounds := segmentBounds(s, curve.Peaks(cfg.MCPeakThreshold, cfg.MCPeakMinSepDays))
	overall := s.Values()
	totalSum := stats.Sum(overall)
	totalN := float64(len(overall))

	// Tavg over all raters in the series.
	allRaters := make([]string, len(s))
	for i, r := range s {
		allRaters[i] = r.Rater
	}
	tAvg := averageTrustRef(ts, allRaters)

	var segs []MCSegment
	for _, iv := range bounds {
		seg := s.Between(iv.Start, iv.End)
		if len(seg) == 0 {
			continue
		}
		raters := make([]string, len(seg))
		for i, r := range seg {
			raters[i] = r.Rater
		}
		m := MCSegment{
			Interval: iv,
			Mean:     stats.Mean(seg.Values()),
			AvgTrust: averageTrustRef(ts, raters),
		}
		bAvg := m.Mean
		if rest := totalN - float64(len(seg)); rest > 0 {
			bAvg = (totalSum - m.Mean*float64(len(seg))) / rest
		}
		m.Shift = m.Mean - bAvg
		dev := abs(m.Shift)
		switch {
		case dev > cfg.MCThreshold1:
			m.Suspicious = true
		case dev > cfg.MCThreshold2 && tAvg > 0 && m.AvgTrust/tAvg < cfg.MCTrustRatio:
			m.Suspicious = true
		}
		segs = append(segs, m)
	}
	return segs
}

// averageTrustRef is the mean of ts.Trust over raters, summed in input
// order (0.5 for none).
func averageTrustRef(ts TrustSource, raters []string) float64 {
	if len(raters) == 0 {
		return 0.5
	}
	var sum float64
	for _, id := range raters {
		sum += ts.Trust(id)
	}
	return sum / float64(len(raters))
}

// bandCountsRef materializes a filtered sub-series before bucketing it into
// daily counts (the original bandCounts).
func bandCountsRef(s dataset.Series, horizon float64, band ARCBand) []float64 {
	switch band {
	case HighBand, LowBand:
		ta, tb := BandThresholds(s.Mean())
		filtered := make(dataset.Series, 0, len(s))
		for _, r := range s {
			if band == HighBand && r.Value > ta {
				filtered = append(filtered, r)
			}
			if band == LowBand && r.Value < tb {
				filtered = append(filtered, r)
			}
		}
		return filtered.DailyCounts(horizon)
	default:
		return s.DailyCounts(horizon)
	}
}

// arcCurveRef recomputes the band counts for the curve pass (the original
// ARCCurve).
func arcCurveRef(s dataset.Series, horizon float64, band ARCBand, cfg Config) Curve {
	counts := bandCountsRef(s, horizon, band)
	n := len(counts)
	d := int(cfg.ARCWindowDays / 2)
	if d < 3 {
		d = 3
	}
	c := Curve{}
	for k := 0; k < n; k++ {
		lo := k - d
		if lo < 0 {
			lo = 0
		}
		hi := k + d
		if hi > n {
			hi = n
		}
		if k-lo < 3 || hi-k < 3 {
			continue
		}
		c.X = append(c.X, float64(k))
		c.Y = append(c.Y, stats.RateChangeGLRT(counts[lo:k], counts[k:hi]))
	}
	return c
}

// arrivalRateChangeRef recomputes the band counts a second time for the
// segment pass and takes the quantile via an allocating copy (the original
// ArrivalRateChange). It returns the band's signals; its curve is
// arcCurveRef's.
func arrivalRateChangeRef(s dataset.Series, horizon float64, band ARCBand, cfg Config) ARCSignals {
	res := ARCSignals{Band: band}
	res.ThresholdA, res.ThresholdB = BandThresholds(s.Mean())
	curve := arcCurveRef(s, horizon, band, cfg)
	if curve.Len() == 0 {
		return res
	}
	for _, p := range curve.Peaks(cfg.ARCPeakThreshold, cfg.ARCPeakMinSepDays) {
		res.PeakDays = append(res.PeakDays, curve.X[p])
	}

	counts := bandCountsRef(s, horizon, band)
	bounds := daySegments(len(counts), res.PeakDays)
	q25 := stats.Quantile(counts, 0.25)
	baseline := q25 + 0.7*math.Sqrt(q25)
	margin := cfg.ARCRateDelta
	if rel := cfg.ARCRelDelta * baseline; rel > margin {
		margin = rel
	}
	for _, iv := range bounds {
		seg := ARCSegment{Interval: iv, Rate: meanCounts(counts, iv)}
		seg.Suspicious = seg.Rate-baseline > margin
		res.Segments = append(res.Segments, seg)
	}
	return res
}

// histogramChangeRef re-sorts and re-clusters every window from scratch via
// cluster.SingleLinkage (the original HistogramChange). It returns the
// curve (one point per window, at its centre day) and the merged
// suspicious windows.
func histogramChangeRef(s dataset.Series, cfg Config) (curve Curve, intervals []Interval) {
	w := cfg.HCWindowRatings
	step := cfg.HCStepRatings
	if step <= 0 {
		step = 1
	}
	if w <= 1 || len(s) < w {
		return curve, nil
	}
	for start := 0; start+w <= len(s); start += step {
		win := s[start : start+w]
		vals := win.Values()
		ratio := clusterGapRatio(vals, cfg.HCMinGap)
		center := (win[0].Day + win[w-1].Day) / 2
		curve.X = append(curve.X, center)
		curve.Y = append(curve.Y, ratio)
		if ratio >= cfg.HCThreshold {
			intervals = append(intervals, Interval{Start: win[0].Day, End: win[w-1].Day})
		}
	}
	return curve, mergeIntervals(intervals)
}

// clusterGapRatio computes the two-cluster size ratio, but returns 0 when
// the value gap between the clusters is below minGap (one noisy population,
// not a histogram change). One SingleLinkage call supplies everything: the
// cluster sizes give the ratio directly, and the gap is min(high cluster) −
// max(low cluster), read off the assignment in a single pass (this function
// used to sort a second copy for the gap and then call cluster.SizeRatio,
// which re-clustered the same window a third time).
func clusterGapRatio(vals []float64, minGap float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	asg, err := cluster.SingleLinkage(vals, 2)
	if err != nil {
		return 0
	}
	sizes := asg.Sizes(2)
	if sizes[0] == 0 || sizes[1] == 0 {
		return 0
	}
	// Gap = min(high cluster) − max(low cluster).
	lowMax, highMin := 0.0, 0.0
	seenLow, seenHigh := false, false
	for i, label := range asg {
		v := vals[i]
		if label == 0 {
			if !seenLow || v > lowMax {
				lowMax = v
				seenLow = true
			}
		} else {
			if !seenHigh || v < highMin {
				highMin = v
				seenHigh = true
			}
		}
	}
	gap := highMin - lowMax
	if gap < minGap {
		return 0
	}
	r := float64(sizes[0]) / float64(sizes[1])
	if r > 1 {
		r = 1 / r
	}
	return r
}

// modelErrorRef copies every window's values before fitting (the original
// ModelError). It returns the curve (one point per window whose fit
// succeeded, at its centre day) and the merged suspicious windows.
func modelErrorRef(s dataset.Series, cfg Config) (curve Curve, intervals []Interval) {
	w := cfg.MEWindowRatings
	step := cfg.MEStepRatings
	if step <= 0 {
		step = 1
	}
	if w <= 2*cfg.MEOrder || len(s) < w {
		return curve, nil
	}
	for start := 0; start+w <= len(s); start += step {
		win := s[start : start+w]
		m, err := armodel.FitMethod(win.Values(), cfg.MEOrder, cfg.MEMethod)
		if err != nil {
			continue
		}
		center := (win[0].Day + win[w-1].Day) / 2
		curve.X = append(curve.X, center)
		curve.Y = append(curve.Y, m.RelErr)
		if m.RelErr < cfg.METhreshold {
			intervals = append(intervals, Interval{Start: win[0].Day, End: win[w-1].Day})
		}
	}
	return curve, mergeIntervals(intervals)
}
