package detect

import (
	"slices"
	"sort"

	"repro/internal/dataset"
)

// TrustSource supplies rater trust to the detectors. The zero-history trust
// is 0.5 (beta model), so a source returning 0.5 for everyone disables the
// trust-assisted branch of the MC segment test.
type TrustSource interface {
	// Trust returns the current trust in the given rater.
	Trust(rater string) float64
}

// priorTrust is the beta model's zero-history trust, 0.5.
const priorTrust = 0.5

// neutralTrust is the TrustSource used when no trust manager is wired in.
type neutralTrust struct{}

func (neutralTrust) Trust(string) float64 { return priorTrust }

// NeutralTrust returns a TrustSource that reports 0.5 for every rater.
func NeutralTrust() TrustSource { return neutralTrust{} }

// SeriesTrust is an optional TrustSource extension for a source bound to
// the series being decided: RatingTrust(i) is the trust of the rater of
// rating i, bit for bit, read by position instead of by rater ID.
type SeriesTrust interface {
	TrustSource
	RatingTrust(i int) float64
}

// averageTrustRange averages ts's trust over the raters of s[from:to],
// summing Trust per rating in series order; a SeriesTrust bound to s sums
// the same values in the same order, read by position. An empty range
// has no raters to distrust, so it averages to the prior.
func averageTrustRange(ts TrustSource, s dataset.Series, from, to int) float64 {
	if from == to {
		return priorTrust
	}
	var sum float64
	if bound, ok := ts.(SeriesTrust); ok {
		for i := from; i < to; i++ {
			sum += bound.RatingTrust(i)
		}
	} else {
		for i := from; i < to; i++ {
			sum += ts.Trust(s[i].Rater)
		}
	}
	return sum / float64(to-from)
}

// mcExtend returns c extended to the mean-change indicator curve of
// Section IV-B.2 over s, reusing c's storage: for each rating k, the GLRT
// statistic for a mean change at t(k) between the ratings in [t(k)−W,
// t(k)) and [t(k), t(k)+W) with W = MCWindowDays/2. Boundary positions use
// whatever smaller half-windows are available.
//
// c must be the MC curve of the prefix s[:c.Len()] under cfg (empty for a
// cold sweep). Point k of c keeps its value iff its forward half-window
// stops before the first new rating, !(s[old].Day < t(k)+W) with
// old = c.Len(): that is the comparison the sweep's hi pointer makes, so
// the kept point read exactly the ratings it reads now. Its backward
// windows end at t(k) and lie inside the prefix anyway. Every other point
// is swept afresh.
//
// The sweep is incremental: because the series is sorted, the three
// window boundaries (t−W, t, t+W) are non-decreasing in k, so each
// advances monotonically — O(n) pointer work in total instead of two
// binary searches per rating — and the GLRT statistics are computed
// directly over series index ranges, with no per-rating Values() copies.
// The window statistics themselves are recomputed exactly per position
// (same summation order as the reference kernel), so the curve is
// bit-identical to reference.MCCurve.
func mcExtend(s dataset.Series, cfg Config, c Curve) Curve {
	n, old := len(s), c.Len()
	half := cfg.MCWindowDays / 2
	from := old
	if old < n {
		// t(k)+W is non-decreasing in k, so the recomputed points are a
		// suffix of the prefix.
		for from > 0 && s[old].Day < s[from-1].Day+half {
			from--
		}
	}
	// Every point from on is overwritten below, so the storage only grows.
	c.X = slices.Grow(c.X[:from], n-from)[:n]
	c.Y = slices.Grow(c.Y[:from], n-from)[:n]
	if from == n {
		return c
	}
	// Position the pointers where the sweep would stand at k = from: the
	// first index each boundary comparison fails on.
	t0 := s[from].Day
	lo := sweepStart(s, t0-half)
	mid := sweepStart(s, t0)
	hi := sweepStart(s, t0+half)
	for k := from; k < n; k++ {
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
		m1, m2 := seriesMean(x1), seriesMean(x2)
		sigma2 := seriesPooledVariance(x1, x2, m1, m2, 0.25)
		c.X[k] = t
		c.Y[k] = meanChangeGLRT(len(x1), len(x2), m1, m2, sigma2)
	}
	return c
}

// sweepStart returns the first index i with !(s[i].Day < bound): where a
// sweep pointer advanced by "for s[i].Day < bound" from 0 would stop.
func sweepStart(s dataset.Series, bound float64) int {
	return sort.Search(len(s), func(i int) bool { return !(s[i].Day < bound) })
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
// segments whose means m1 and m2 the caller computed with seriesMean
// (identical arithmetic, no copies).
//
//lint:hotpath
func seriesPooledVariance(x1, x2 dataset.Series, m1, m2, fallback float64) float64 {
	n := len(x1) + len(x2)
	if n < 3 {
		return fallback
	}
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

// meanChangeGLRT mirrors stats.MeanChangeGLRT for two segments of n1 and
// n2 values with means m1 and m2.
//
//lint:hotpath
func meanChangeGLRT(n1, n2 int, m1, m2, sigma2 float64) float64 {
	if n1 == 0 || n2 == 0 || sigma2 <= 0 {
		return 0
	}
	d := m1 - m2
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

// mcSegments runs the trust-free part of the MC detector of Section IV-B
// on the MC curve c of s: peak detection, segmentation at the peaks, and
// each segment's bounds, mean and shift. AvgTrust and Suspicious are left
// zero for decideSegments. Segment means walk series index ranges
// directly, with no per-segment slice materialization (bit-identical to
// reference.MeanChange, which does).
func mcSegments(s dataset.Series, cfg Config, c Curve) []MCSegment {
	if len(s) == 0 {
		return nil
	}
	bounds := segmentBounds(s, c.Peaks(cfg.MCPeakThreshold, cfg.MCPeakMinSepDays))
	totalSum := seriesSum(s)
	totalN := float64(len(s))

	segs := make([]MCSegment, 0, len(bounds))
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
		segs = append(segs, m)
	}
	return segs
}

// decideSegments is the trust half of the MC segment test: it returns a
// copy of segs (from mcSegments over the same s) with each segment's
// AvgTrust and Suspicious set — a large mean change, or a moderate one
// whose raters are trusted below par. segs is only read.
func decideSegments(s dataset.Series, segs []MCSegment, cfg Config, ts TrustSource) []MCSegment {
	if len(segs) == 0 {
		return nil
	}
	if ts == nil {
		ts = NeutralTrust()
	}
	out := make([]MCSegment, len(segs))
	tAvg := averageTrustRange(ts, s, 0, len(s))
	for i, m := range segs {
		from, to := s.BetweenIndex(m.Interval.Start, m.Interval.End)
		m.AvgTrust = averageTrustRange(ts, s, from, to)
		dev := abs(m.Shift)
		switch {
		case dev > cfg.MCThreshold1:
			m.Suspicious = true
		case dev > cfg.MCThreshold2 && tAvg > 0 && m.AvgTrust/tAvg < cfg.MCTrustRatio:
			m.Suspicious = true
		}
		out[i] = m
	}
	return out
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
