package detect

import (
	"repro/internal/dataset"
)

// TrustSource supplies rater trust to the detectors. The zero-history trust
// is 0.5 (beta model), so a source returning 0.5 for everyone disables the
// trust-assisted branch of the MC segment test.
type TrustSource interface {
	// Trust returns the current trust in the given rater.
	Trust(rater string) float64
	// AverageTrust returns the mean trust over the raters (0.5 for none).
	AverageTrust(raters []string) float64
}

// neutralTrust is the TrustSource used when no trust manager is wired in.
type neutralTrust struct{}

func (neutralTrust) Trust(string) float64          { return 0.5 }
func (neutralTrust) AverageTrust([]string) float64 { return 0.5 }

// NeutralTrust returns a TrustSource that reports 0.5 for every rater.
func NeutralTrust() TrustSource { return neutralTrust{} }

// averageTrustRange averages ts's trust over the raters of s by walking the
// series directly instead of materializing a []string. Summing Trust() per
// rating in series order is bit-identical to AverageTrust over the same
// raters for every TrustSource in the repo (trust.Manager sums Trust(id) in
// input order; the neutral source's constant 0.5 averages back to exactly
// 0.5 since n·0.5 and its division by n are both exact).
func averageTrustRange(ts TrustSource, s dataset.Series) float64 {
	if len(s) == 0 {
		return ts.AverageTrust(nil)
	}
	var sum float64
	for i := range s {
		sum += ts.Trust(s[i].Rater)
	}
	return sum / float64(len(s))
}

// MCCurve computes the mean-change indicator curve of Section IV-B.2: for
// each rating k, the GLRT statistic for a mean change at t(k) between the
// ratings in [t(k)−W, t(k)) and [t(k), t(k)+W) with W = MCWindowDays/2.
// Boundary positions use whatever smaller half-windows are available.
//
// The kernel is an incremental two-pointer sweep: because the series is
// sorted, the three window boundaries (t−W, t, t+W) are non-decreasing in
// k, so each advances monotonically across the whole series — O(n) pointer
// work total instead of two binary searches per rating — and the GLRT
// statistics are computed directly over series index ranges, with no
// per-rating Values() copies. The window statistics themselves are
// recomputed exactly per position (same summation order as the reference
// kernel), so the curve is bit-identical to mcCurveRef.
func MCCurve(s dataset.Series, cfg Config) Curve {
	n := len(s)
	c := Curve{X: make([]float64, n), Y: make([]float64, n)}
	half := cfg.MCWindowDays / 2
	lo, mid, hi := 0, 0, 0
	for k := 0; k < n; k++ {
		t := s[k].Day
		for lo < n && s[lo].Day < t-half {
			lo++
		}
		for mid < n && s[mid].Day < t {
			mid++
		}
		for hi < n && s[hi].Day < t+half {
			hi++
		}
		x1 := s[lo:mid]
		x2 := s[mid:hi]
		sigma2 := seriesPooledVariance(x1, x2, 0.25)
		c.X[k] = t
		c.Y[k] = seriesMeanChangeGLRT(x1, x2, sigma2)
	}
	return c
}

// seriesMean mirrors stats.Mean over a series' values (same summation
// order, no copy).
//
//lint:hotpath
func seriesMean(s dataset.Series) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for i := range s {
		sum += s[i].Value
	}
	return sum / float64(len(s))
}

// seriesSum mirrors stats.Sum over a series' values.
//
//lint:hotpath
func seriesSum(s dataset.Series) float64 {
	var sum float64
	for i := range s {
		sum += s[i].Value
	}
	return sum
}

// seriesPooledVariance mirrors stats.PooledVariance over two series
// segments (identical arithmetic, no copies).
//
//lint:hotpath
func seriesPooledVariance(x1, x2 dataset.Series, fallback float64) float64 {
	n := len(x1) + len(x2)
	if n < 3 {
		return fallback
	}
	m1, m2 := seriesMean(x1), seriesMean(x2)
	var ss float64
	for i := range x1 {
		d := x1[i].Value - m1
		ss += d * d
	}
	for i := range x2 {
		d := x2[i].Value - m2
		ss += d * d
	}
	v := ss / float64(n-2)
	if v <= 0 {
		return fallback
	}
	return v
}

// seriesMeanChangeGLRT mirrors stats.MeanChangeGLRT over two series
// segments.
//
//lint:hotpath
func seriesMeanChangeGLRT(x1, x2 dataset.Series, sigma2 float64) float64 {
	n1, n2 := len(x1), len(x2)
	if n1 == 0 || n2 == 0 || sigma2 <= 0 {
		return 0
	}
	d := seriesMean(x1) - seriesMean(x2)
	w := 2 * float64(n1) * float64(n2) / float64(n1+n2)
	return w * d * d / (2 * sigma2)
}

// MCSegment is one run of ratings between consecutive MC peaks.
type MCSegment struct {
	Interval Interval
	Mean     float64 // Bj: mean rating value in the segment
	AvgTrust float64 // Tj: mean trust of the segment's raters
	// Shift is Bj minus the mean of the other segments; its sign tells a
	// downgrade-shaped anomaly (negative) from a boost-shaped one.
	Shift      float64
	Suspicious bool
}

// MCResult is the outcome of the mean-change detector on one series.
type MCResult struct {
	Curve    Curve
	Peaks    []int // indices into Curve (== series indices)
	Segments []MCSegment
}

// Suspicious reports whether any segment was marked suspicious.
func (r MCResult) Suspicious() bool {
	for _, seg := range r.Segments {
		if seg.Suspicious {
			return true
		}
	}
	return false
}

// SuspiciousIntervals returns the intervals of the suspicious segments.
func (r MCResult) SuspiciousIntervals() []Interval {
	var out []Interval
	for _, seg := range r.Segments {
		if seg.Suspicious {
			out = append(out, seg.Interval)
		}
	}
	return out
}

// MeanChange runs the full MC detector of Section IV-B: indicator curve,
// peak detection, segmentation at the peaks, and the two-condition segment
// suspiciousness test (large mean change, or moderate mean change plus
// below-par rater trust). Segment means and trust averages walk series
// index ranges directly — the detector performs no per-segment slice
// materialization (bit-identical to meanChangeRef, which does).
func MeanChange(s dataset.Series, cfg Config, ts TrustSource) MCResult {
	res := meanChangeSignals(s, cfg)
	decideSegments(res.Segments, s, res.Segments, cfg, ts)
	return res
}

// meanChangeSignals is the trust-free part of MeanChange: the curve, the
// peaks and each segment's bounds, mean and shift. AvgTrust and Suspicious
// are left zero for decideSegments.
func meanChangeSignals(s dataset.Series, cfg Config) MCResult {
	res := MCResult{Curve: MCCurve(s, cfg)}
	if len(s) == 0 {
		return res
	}
	res.Peaks = res.Curve.Peaks(cfg.MCPeakThreshold, cfg.MCPeakMinSepDays)

	bounds := segmentBounds(s, res.Peaks)
	totalSum := seriesSum(s)
	totalN := float64(len(s))

	res.Segments = make([]MCSegment, 0, len(bounds))
	for _, iv := range bounds {
		seg := s.Between(iv.Start, iv.End)
		if len(seg) == 0 {
			continue
		}
		m := MCSegment{Interval: iv, Mean: seriesMean(seg)}
		// Compare the segment mean against the mean of the *other*
		// segments: a long attack segment would otherwise drag the global
		// average toward itself and dilute its own evidence.
		bAvg := m.Mean
		if rest := totalN - float64(len(seg)); rest > 0 {
			bAvg = (totalSum - m.Mean*float64(len(seg))) / rest
		}
		m.Shift = m.Mean - bAvg
		res.Segments = append(res.Segments, m)
	}
	return res
}

// decideSegments is the trust half of the MC segment test: it writes segs
// (from meanChangeSignals over the same s) into dst with each segment's
// AvgTrust and Suspicious set. dst must have len(segs) and may be segs
// itself; otherwise segs is only read.
func decideSegments(dst []MCSegment, s dataset.Series, segs []MCSegment, cfg Config, ts TrustSource) {
	if len(segs) == 0 {
		return
	}
	if ts == nil {
		ts = NeutralTrust()
	}
	tAvg := averageTrustRange(ts, s)
	for i, m := range segs {
		m.AvgTrust = averageTrustRange(ts, s.Between(m.Interval.Start, m.Interval.End))
		dev := abs(m.Shift)
		switch {
		case dev > cfg.MCThreshold1:
			m.Suspicious = true
		case dev > cfg.MCThreshold2 && tAvg > 0 && m.AvgTrust/tAvg < cfg.MCTrustRatio:
			m.Suspicious = true
		}
		dst[i] = m
	}
}

// segmentBounds splits the series' time span at the peak positions,
// returning M+1 intervals for M peaks (or one interval covering everything
// when there are no peaks).
func segmentBounds(s dataset.Series, peaks []int) []Interval {
	first, last := s.Span()
	end := last + 1e-9 // make the final interval include the last rating
	if len(peaks) == 0 {
		return []Interval{{Start: first, End: end}}
	}
	out := make([]Interval, 0, len(peaks)+1)
	prev := first
	for _, p := range peaks {
		t := s[p].Day
		if t > prev {
			out = append(out, Interval{Start: prev, End: t})
		}
		prev = t
	}
	if prev < end {
		out = append(out, Interval{Start: prev, End: end})
	}
	return out
}
