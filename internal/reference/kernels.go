package reference

import (
	"math"

	"repro/internal/armodel"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/stats"
)

// The kernels below are the original straightforward detector loops. The
// shipped kernels in internal/detect are incremental sliding-window
// rewrites that must match them bit for bit (DESIGN.md §10). These
// recompute every window from scratch — O(n·w) work and one or more
// allocations per window — which is exactly the cost the incremental
// kernels eliminate. They share no code with internal/detect beyond its
// exported types, Curve.Peaks and BandThresholds; the segment and interval
// helpers at the end of this file are written out again.

// MCCurve recomputes both MC half-windows per rating with two binary
// searches and two fresh Values() copies (the original MCCurve).
func MCCurve(s dataset.Series, cfg detect.Config) detect.Curve {
	n := len(s)
	c := detect.Curve{X: make([]float64, n), Y: make([]float64, n)}
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

// mcSegments is the trust-free half of the original MC detector: peaks on
// MCCurve and per-segment []float64 materialization. It returns each
// segment's interval, mean and shift.
func mcSegments(s dataset.Series, cfg detect.Config) []detect.MCSegment {
	if len(s) == 0 {
		return nil
	}
	curve := MCCurve(s, cfg)
	// Segments run between the peaks' days, the last just past the last
	// rating.
	var cuts []float64
	for _, p := range curve.Peaks(cfg.MCPeakThreshold, cfg.MCPeakMinSepDays) {
		cuts = append(cuts, s[p].Day)
	}
	first, last := s.Span()
	bounds := splitAt(first, last+1e-9, cuts)
	overall := s.Values()
	totalSum := stats.Sum(overall)
	totalN := float64(len(overall))
	var segs []detect.MCSegment
	for _, iv := range bounds {
		seg := s.Between(iv.Start, iv.End)
		if len(seg) == 0 {
			continue
		}
		m := detect.MCSegment{Interval: iv, Mean: stats.Mean(seg.Values())}
		bAvg := m.Mean
		if rest := totalN - float64(len(seg)); rest > 0 {
			bAvg = (totalSum - m.Mean*float64(len(seg))) / rest
		}
		m.Shift = m.Mean - bAvg
		segs = append(segs, m)
	}
	return segs
}

// MeanChange is the original MC detector: mcSegments, then each segment's
// trust averaged by summing Trust over its materialized raters in input
// order, and the segment test. It returns the decided segments.
func MeanChange(s dataset.Series, cfg detect.Config, ts detect.TrustSource) []detect.MCSegment {
	if ts == nil {
		ts = detect.NeutralTrust()
	}
	segs := mcSegments(s, cfg)
	tAvg := AverageTrust(ts, raters(s))
	for i := range segs {
		m := &segs[i]
		m.AvgTrust = AverageTrust(ts, raters(s.Between(m.Interval.Start, m.Interval.End)))
		dev := math.Abs(m.Shift)
		switch {
		case dev > cfg.MCThreshold1:
			m.Suspicious = true
		case dev > cfg.MCThreshold2 && tAvg > 0 && m.AvgTrust/tAvg < cfg.MCTrustRatio:
			m.Suspicious = true
		}
	}
	return segs
}

func raters(s dataset.Series) []string {
	out := make([]string, len(s))
	for i, r := range s {
		out[i] = r.Rater
	}
	return out
}

// AverageTrust is the mean of ts.Trust over raters, summed in input order
// (0.5 for none).
func AverageTrust(ts detect.TrustSource, raters []string) float64 {
	if len(raters) == 0 {
		return 0.5
	}
	var sum float64
	for _, id := range raters {
		sum += ts.Trust(id)
	}
	return sum / float64(len(raters))
}

// BandCounts materializes a filtered sub-series before bucketing it into
// daily counts (the original bandCounts).
func BandCounts(s dataset.Series, horizon float64, band detect.ARCBand) []float64 {
	switch band {
	case detect.HighBand, detect.LowBand:
		ta, tb := detect.BandThresholds(s.Mean())
		filtered := make(dataset.Series, 0, len(s))
		for _, r := range s {
			if band == detect.HighBand && r.Value > ta {
				filtered = append(filtered, r)
			}
			if band == detect.LowBand && r.Value < tb {
				filtered = append(filtered, r)
			}
		}
		return filtered.DailyCounts(horizon)
	default:
		return s.DailyCounts(horizon)
	}
}

// ARCCurve recomputes the band counts for the curve pass (the original
// ARCCurve).
func ARCCurve(s dataset.Series, horizon float64, band detect.ARCBand, cfg detect.Config) detect.Curve {
	counts := BandCounts(s, horizon, band)
	n := len(counts)
	d := max(int(cfg.ARCWindowDays/2), 3)
	c := detect.Curve{}
	for k := 0; k < n; k++ {
		lo := max(k-d, 0)
		hi := min(k+d, n)
		if k-lo < 3 || hi-k < 3 {
			continue
		}
		c.X = append(c.X, float64(k))
		c.Y = append(c.Y, stats.RateChangeGLRT(counts[lo:k], counts[k:hi]))
	}
	return c
}

// ArrivalRateChange recomputes the band counts a second time for the
// segment pass and takes the quantile via an allocating copy (the original
// ArrivalRateChange). It returns the band's signals; its curve is
// ARCCurve's.
func ArrivalRateChange(s dataset.Series, horizon float64, band detect.ARCBand, cfg detect.Config) detect.ARCSignals {
	res := detect.ARCSignals{Band: band}
	res.ThresholdA, res.ThresholdB = detect.BandThresholds(s.Mean())
	curve := ARCCurve(s, horizon, band, cfg)
	if curve.Len() == 0 {
		return res
	}
	for _, p := range curve.Peaks(cfg.ARCPeakThreshold, cfg.ARCPeakMinSepDays) {
		res.PeakDays = append(res.PeakDays, curve.X[p])
	}

	counts := BandCounts(s, horizon, band)
	bounds := splitAt(0, float64(len(counts)), res.PeakDays)
	q25 := stats.Quantile(counts, 0.25)
	baseline := q25 + 0.7*math.Sqrt(q25)
	margin := cfg.ARCRateDelta
	if rel := cfg.ARCRelDelta * baseline; rel > margin {
		margin = rel
	}
	for _, iv := range bounds {
		seg := detect.ARCSegment{Interval: iv, Rate: meanCounts(counts, iv)}
		seg.Suspicious = seg.Rate-baseline > margin
		res.Segments = append(res.Segments, seg)
	}
	return res
}

// HistogramChange re-sorts and re-clusters every window from scratch via
// cluster.SingleLinkage (the original HistogramChange). It returns the
// curve (one point per window, at its centre day) and the merged
// suspicious windows.
func HistogramChange(s dataset.Series, cfg detect.Config) (curve detect.Curve, intervals []detect.Interval) {
	w := cfg.HCWindowRatings
	step := max(cfg.HCStepRatings, 1)
	if w <= 1 || len(s) < w {
		return curve, nil
	}
	for start := 0; start+w <= len(s); start += step {
		win := s[start : start+w]
		ratio := clusterGapRatio(win.Values(), cfg.HCMinGap)
		curve.X = append(curve.X, (win[0].Day+win[w-1].Day)/2)
		curve.Y = append(curve.Y, ratio)
		if ratio >= cfg.HCThreshold {
			intervals = append(intervals, detect.Interval{Start: win[0].Day, End: win[w-1].Day})
		}
	}
	return curve, mergeIntervals(intervals)
}

// clusterGapRatio is the two-cluster size ratio of one SingleLinkage
// split, or 0 when the value gap between the clusters, min(high) −
// max(low), is below minGap (one noisy population, not a histogram
// change).
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
	lowMax, highMin := math.Inf(-1), math.Inf(1)
	for i, label := range asg {
		if v := vals[i]; label == 0 && v > lowMax {
			lowMax = v
		} else if label != 0 && v < highMin {
			highMin = v
		}
	}
	if highMin-lowMax < minGap {
		return 0
	}
	r := float64(sizes[0]) / float64(sizes[1])
	if r > 1 {
		r = 1 / r
	}
	return r
}

// ModelError copies every window's values before fitting (the original
// ModelError). It returns the curve (one point per window whose fit
// succeeded, at its centre day) and the merged suspicious windows.
func ModelError(s dataset.Series, cfg detect.Config) (curve detect.Curve, intervals []detect.Interval) {
	w := cfg.MEWindowRatings
	step := max(cfg.MEStepRatings, 1)
	if w <= 2*cfg.MEOrder || len(s) < w {
		return curve, nil
	}
	for start := 0; start+w <= len(s); start += step {
		win := s[start : start+w]
		m, err := armodel.FitMethod(win.Values(), cfg.MEOrder, cfg.MEMethod)
		if err != nil {
			continue
		}
		curve.X = append(curve.X, (win[0].Day+win[w-1].Day)/2)
		curve.Y = append(curve.Y, m.RelErr)
		if m.RelErr < cfg.METhreshold {
			intervals = append(intervals, detect.Interval{Start: win[0].Day, End: win[w-1].Day})
		}
	}
	return curve, mergeIntervals(intervals)
}

// Signals is the trust-free half of one detector run on s at horizon,
// computed by the kernels above: what detect.SeriesSignals and
// detect.ArrivalSignals return from no carry.
func Signals(s dataset.Series, horizon float64, cfg detect.Config) detect.Signals {
	sig := detect.Signals{
		MC:   mcSegments(s, cfg),
		HARC: ArrivalRateChange(s, horizon, detect.HighBand, cfg),
		LARC: ArrivalRateChange(s, horizon, detect.LowBand, cfg),
	}
	_, sig.HC = HistogramChange(s, cfg)
	_, sig.ME = ModelError(s, cfg)
	return sig
}

// splitAt splits [start, end) at the sorted cut points, dropping empty
// pieces: M+1 intervals for M distinct cuts inside it.
func splitAt(start, end float64, cuts []float64) []detect.Interval {
	if len(cuts) == 0 {
		return []detect.Interval{{Start: start, End: end}}
	}
	var out []detect.Interval
	prev := start
	for _, t := range cuts {
		if t > prev {
			out = append(out, detect.Interval{Start: prev, End: t})
		}
		prev = t
	}
	if prev < end {
		out = append(out, detect.Interval{Start: prev, End: end})
	}
	return out
}

// meanCounts is the mean of the daily counts over iv, clipped to them.
func meanCounts(counts []float64, iv detect.Interval) float64 {
	lo := max(int(iv.Start), 0)
	hi := min(int(math.Ceil(iv.End)), len(counts))
	if hi <= lo {
		return 0
	}
	return stats.Mean(counts[lo:hi])
}

// mergeIntervals coalesces overlapping or touching intervals, ordered by
// Start.
func mergeIntervals(ivs []detect.Interval) []detect.Interval {
	var out []detect.Interval
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.Start <= out[n-1].End {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}
