package detect

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// ARCBand selects which ratings feed the arrival-rate-change detector.
type ARCBand int

// ARC bands (Section IV-C.4). AllRatings is the plain ARC detector; HighBand
// counts ratings above threshold_a (H-ARC); LowBand counts ratings below
// threshold_b (L-ARC).
const (
	AllRatings ARCBand = iota + 1
	HighBand
	LowBand
)

// String returns the band name.
func (b ARCBand) String() string {
	switch b {
	case AllRatings:
		return "ARC"
	case HighBand:
		return "H-ARC"
	case LowBand:
		return "L-ARC"
	default:
		return "ARC(?)"
	}
}

// BandThresholds returns threshold_a and threshold_b for a window whose
// rating mean is m (Section V-A): threshold_a = 0.5·m, threshold_b =
// 0.5·m + 0.5. Because rating widgets quantize to half stars, threshold_b
// is snapped up just past the next half-star grid point — otherwise an
// attacker rating exactly on the boundary value (2.5 for a mean-4 product)
// would fall outside the "lower than threshold_b" band by a hair and the
// L-ARC detector would never see the attack.
//
//lint:hotpath
func BandThresholds(mean float64) (thresholdA, thresholdB float64) {
	tb := 0.5*mean + 0.5
	tb = math.Ceil(tb*2)/2 + 0.01
	return 0.5 * mean, tb
}

// bandCountsInto buckets the ratings selected by band into daily counts
// over [0, horizon), writing into buf (grown and zeroed as needed) and
// returning the counts slice. Band membership is tested while bucketing —
// one pass, no intermediate filtered series — which produces the same
// integer counts as filtering first (bandCountsRef): each selected rating
// increments exactly one bucket either way.
func bandCountsInto(s dataset.Series, horizon float64, band ARCBand, sc *Scratch) []float64 {
	n := int(math.Ceil(horizon))
	if n < 0 {
		n = 0
	}
	counts := sc.countsBuf(n)
	var ta, tb float64
	if band == HighBand || band == LowBand {
		ta, tb = BandThresholds(s.Mean())
	}
	for i := range s {
		r := &s[i]
		switch band {
		case HighBand:
			if !(r.Value > ta) {
				continue
			}
		case LowBand:
			if !(r.Value < tb) {
				continue
			}
		}
		d := int(math.Floor(r.Day))
		if d < 0 || d >= n {
			continue
		}
		counts[d]++
	}
	return counts
}

// arcCurveFromCounts computes the ARC indicator curve from precomputed
// daily counts. Each position's Poisson GLRT is evaluated exactly over the
// count sub-ranges (no rolling sums: the per-window statistic must stay
// bit-identical to the reference), but the counts themselves are computed
// once per detector run instead of once per pass.
func arcCurveFromCounts(counts []float64, cfg Config) Curve {
	n := len(counts)
	d := int(cfg.ARCWindowDays / 2)
	if d < 3 {
		d = 3
	}
	c := Curve{}
	if n >= 6 {
		// Points exist exactly for k in [3, n-3]; preallocate once.
		c.X = make([]float64, 0, n-5)
		c.Y = make([]float64, 0, n-5)
	}
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

// ARCCurve computes the arrival-rate-change curve of Section IV-C.2 for the
// chosen band: at each day k′, the normalized Poisson GLRT statistic over
// the 2D-day window centred at k′ (smaller windows at the boundaries, with a
// minimum of 3 days per side).
func ARCCurve(s dataset.Series, horizon float64, band ARCBand, cfg Config) Curve {
	return arcCurveFromCounts(bandCountsInto(s, horizon, band, NewScratch()), cfg)
}

// ARCSegment is a run of days between consecutive ARC peaks.
type ARCSegment struct {
	Interval   Interval
	Rate       float64 // mean daily count of band ratings in the segment
	Suspicious bool    // band rate elevated above the series baseline
}

// ARCResult is the outcome of the (H-/L-)ARC detector on one series.
type ARCResult struct {
	Band     ARCBand
	Curve    Curve
	Peaks    []int // indices into Curve
	Segments []ARCSegment
	// ThresholdA and ThresholdB are the band thresholds derived from the
	// series mean, echoed for the fusion stage.
	ThresholdA float64
	ThresholdB float64
}

// signals returns the part of the result the Figure 1 fusion reads: the
// band, peak days, segments and thresholds, without the curve.
func (r ARCResult) signals() ARCSignals {
	out := ARCSignals{
		Band:       r.Band,
		Segments:   r.Segments,
		ThresholdA: r.ThresholdA,
		ThresholdB: r.ThresholdB,
	}
	if len(r.Peaks) > 0 {
		out.PeakDays = make([]float64, len(r.Peaks))
		for i, p := range r.Peaks {
			out.PeakDays[i] = r.Curve.X[p]
		}
	}
	return out
}

// Alarm reports whether the detector saw a rate-change peak or an elevated
// segment (see ARCSignals.Alarm).
func (r ARCResult) Alarm() bool { return r.signals().Alarm() }

// Suspicious reports whether any segment shows a suspicious rate increase.
func (r ARCResult) Suspicious() bool { return r.signals().Suspicious() }

// SuspiciousIntervals returns the intervals of the suspicious segments.
func (r ARCResult) SuspiciousIntervals() []Interval { return r.signals().SuspiciousIntervals() }

// UShape returns, for each pair of consecutive peaks, the interval between
// them (see ARCSignals.UShape).
func (r ARCResult) UShape() []Interval { return r.signals().UShape() }

// ARCSignals is the trust-free (H-/L-)ARC evidence the fusion reads: an
// ARCResult without its indicator curve, small enough to cache.
type ARCSignals struct {
	Band     ARCBand
	PeakDays []float64 // days of the curve's peaks, in order
	Segments []ARCSegment
	// ThresholdA and ThresholdB are the band thresholds derived from the
	// series mean.
	ThresholdA float64
	ThresholdB float64
}

// Alarm reports whether the detector saw a rate-change peak or an elevated
// segment (Figure 1's "H-ARC alarm" / "L-ARC alarm"). An attack spanning
// the whole history produces no change point, but its band rate still sits
// above the median baseline, which is just as alarming.
func (a ARCSignals) Alarm() bool { return len(a.PeakDays) > 0 || a.Suspicious() }

// Suspicious reports whether any segment shows a suspicious rate increase.
func (a ARCSignals) Suspicious() bool {
	for _, seg := range a.Segments {
		if seg.Suspicious {
			return true
		}
	}
	return false
}

// SuspiciousIntervals returns the intervals of the suspicious segments.
func (a ARCSignals) SuspiciousIntervals() []Interval {
	var out []Interval
	for _, seg := range a.Segments {
		if seg.Suspicious {
			out = append(out, seg.Interval)
		}
	}
	return out
}

// UShape returns, for each pair of consecutive peaks, the interval between
// them — the candidate attack interval of Figure 1's Path 1 ("the U-shape").
func (a ARCSignals) UShape() []Interval {
	var out []Interval
	for i := 0; i+1 < len(a.PeakDays); i++ {
		out = append(out, Interval{Start: a.PeakDays[i], End: a.PeakDays[i+1]})
	}
	return out
}

// ArrivalRateChange runs the full (H-/L-)ARC detector of Section IV-C:
// curve, peaks, segmentation, and the elevated-rate segment test.
func ArrivalRateChange(s dataset.Series, horizon float64, band ARCBand, cfg Config) ARCResult {
	return arrivalRateChangeWith(NewScratch(), s, horizon, band, cfg)
}

// arrivalRateChangeWith is ArrivalRateChange on reusable scratch buffers:
// the daily band counts are bucketed once (the reference recomputes them
// for the curve pass and again for the segment pass) and the baseline
// quantile sorts a scratch copy in place instead of allocating one.
func arrivalRateChangeWith(sc *Scratch, s dataset.Series, horizon float64, band ARCBand, cfg Config) ARCResult {
	counts := bandCountsInto(s, horizon, band, sc)
	res := ARCResult{Band: band, Curve: arcCurveFromCounts(counts, cfg)}
	res.ThresholdA, res.ThresholdB = BandThresholds(s.Mean())
	if res.Curve.Len() == 0 {
		return res
	}
	res.Peaks = res.Curve.Peaks(cfg.ARCPeakThreshold, cfg.ARCPeakMinSepDays)

	bounds := daySegments(len(counts), res.Curve, res.Peaks)
	// Baseline band rate, estimated from the lower-quartile daily count.
	// A quantile baseline — rather than a previous-segment comparison —
	// gives attacks that start on day 0 no place to hide, and the 25th
	// percentile stays honest even when unfair ratings land on up to three
	// quarters of all days (a dilute long-duration attack poisons the
	// median). For a Poisson(λ) band the lower quartile sits ≈ 0.7·√λ
	// below the mean, so that gap is added back to recover λ.
	quant := sc.quantBuf(len(counts))
	copy(quant, counts)
	q25 := stats.QuantileInPlace(quant, 0.25)
	baseline := q25 + 0.7*math.Sqrt(q25)
	// The alarm margin scales with the baseline: busy bands (H-ARC on a
	// popular product counts nearly every rating) fluctuate in absolute
	// terms far more than quiet ones, so a purely absolute delta would
	// fire on ordinary bursts.
	margin := cfg.ARCRateDelta
	if rel := cfg.ARCRelDelta * baseline; rel > margin {
		margin = rel
	}
	res.Segments = make([]ARCSegment, 0, len(bounds))
	for _, iv := range bounds {
		seg := ARCSegment{Interval: iv, Rate: meanCounts(counts, iv)}
		seg.Suspicious = seg.Rate-baseline > margin
		res.Segments = append(res.Segments, seg)
	}
	return res
}

// daySegments splits [0, days) at the peak day positions.
func daySegments(days int, c Curve, peaks []int) []Interval {
	end := float64(days)
	if len(peaks) == 0 {
		return []Interval{{Start: 0, End: end}}
	}
	out := make([]Interval, 0, len(peaks)+1)
	prev := 0.0
	for _, p := range peaks {
		t := c.X[p]
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

func meanCounts(counts []float64, iv Interval) float64 {
	lo := int(iv.Start)
	hi := int(math.Ceil(iv.End))
	if lo < 0 {
		lo = 0
	}
	if hi > len(counts) {
		hi = len(counts)
	}
	if hi <= lo {
		return 0
	}
	return stats.Mean(counts[lo:hi])
}
