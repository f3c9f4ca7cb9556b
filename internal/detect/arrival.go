package detect

import (
	"math"
	"slices"

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

// arcHalfWindow returns D, the ARC half-window in days (at least 3).
func arcHalfWindow(cfg Config) int {
	d := int(cfg.ARCWindowDays / 2)
	if d < 3 {
		d = 3
	}
	return d
}

// horizonDays returns the number of daily counts over [0, horizon).
func horizonDays(horizon float64) int {
	return max(int(math.Ceil(horizon)), 0)
}

// curvePoints returns the number of ARC curve points over n days: a point
// exists exactly for each day k in [3, n−3], and point j sits at day j+3.
func curvePoints(n int) int { return max(n-5, 0) }

// curveDays returns the days of the first m ARC curve points: 3, 4, 5, …
func curveDays(m int) []float64 {
	days := make([]float64, m)
	for j := range days {
		days[j] = float64(j + 3)
	}
	return days
}

// bandSums buckets the ratings selected by band (against thresholds ta
// and tb) into the daily counts of [0, n) and returns their prefix sums,
// sums[i] = the band ratings on days before i (on scratch, len n+1), and
// the largest daily count. Band membership is tested while bucketing —
// one pass, no intermediate filtered series — which produces the same
// integer counts as filtering first (reference.BandCounts): each selected
// rating increments exactly one bucket either way.
func (sc *Scratch) bandSums(s dataset.Series, n int, band ARCBand, ta, tb float64) (sums []int64, peak int64) {
	sums = sc.sumsBuf(n + 1)
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
		sums[d+1]++
		peak = max(peak, sums[d+1])
	}
	for i := 1; i <= n; i++ {
		sums[i] += sums[i-1]
	}
	return sums, peak
}

// arcCarry is one band's part of a Prefix: the daily band counts of the
// horizon it last covered and the ARC curve over them (y[j] at day j+3,
// so the days are not stored). The zero value covers no days.
type arcCarry struct {
	counts []int32
	y      []float64
}

// update brings c up to the daily counts whose prefix sums are sums,
// recomputing only the curve points whose inputs changed (arcCurveUpdate),
// and makes those counts the carried ones. It assumes nothing about how
// the counts moved, so any series and horizon may follow any other.
func (c *arcCarry) update(sums []int64, d int) {
	n, m := len(sums)-1, curvePoints(len(sums)-1)
	if cap(c.y) < m {
		c.y = slices.Grow(c.y, m-len(c.y))
	}
	arcCurveUpdate(c.y[:m], c.counts, sums, d)
	c.y = c.y[:m]
	c.counts = grow(c.counts, n)
	for i := range c.counts {
		c.counts[i] = int32(sums[i+1] - sums[i])
	}
}

// arcCurveUpdate writes into y the ARC curve of Section IV-C.2 over the
// daily counts whose prefix sums are sums (n days): y[j] is the Poisson
// GLRT at day k = j+3 over the window [max(0, k−d), min(n, k+d)) split at
// k. On entry y holds the curve over the counts old. A point is
// recomputed only if its window covers a day whose count differs from
// old's, or a day old does not cover, or if its window's clip at the
// horizon moved (min(len(old), k+d) ≠ min(n, k+d)); a point the old curve
// lacks falls under the last two rules. Every other point has the same
// inputs, so it keeps its value. Band counts are not monotone in the
// prefix — threshold_a moves with the prefix mean, so old ratings can
// leave or join a band — which is why the counts are compared rather than
// assumed grown.
//
// The counts are integers, so the window sums are prefix-sum differences,
// exact below 2^53: each point costs O(1) and equals the reference's
// stats.RateChangeGLRT over the count sub-ranges bit for bit. The scan
// for changed days only moves forward, so a call is O(n) plus the
// recomputed points.
//
//lint:hotpath
func arcCurveUpdate(y []float64, old []int32, sums []int64, d int) {
	n, n0 := len(sums)-1, len(old)
	next := 0 // the days of the current window before next are unchanged
	for j := range y {
		k := j + 3
		lo, hi := max(k-d, 0), min(k+d, n)
		next = max(next, lo)
		for next < hi && next < n0 && int64(old[next]) == sums[next+1]-sums[next] {
			next++
		}
		if next < hi || min(k+d, n0) != hi {
			y[j] = stats.RateChangeGLRTSums(float64(sums[k]-sums[lo]), float64(sums[hi]-sums[k]),
				float64(k-lo), float64(hi-k))
		}
	}
}

// ARCSegment is a run of days between consecutive ARC peaks.
type ARCSegment struct {
	Interval   Interval
	Rate       float64 // mean daily count of band ratings in the segment
	Suspicious bool    // band rate elevated above the series baseline
}

// ARCSignals is the outcome of the (H-/L-)ARC detector of Section IV-C on
// one series: the trust-free evidence the fusion reads, without the
// indicator curve, small enough to cache.
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

// arcBand runs one band of the (H-/L-)ARC detector over the daily counts
// of [0, n) under thresholds ta, tb: the curve comes from carry c, brought
// up to the counts, and the peaks, segments and baseline are computed over
// the full arrays. days holds the days of the curve's points (the first
// curvePoints(n) of curveDays).
func arcBand(sc *Scratch, s dataset.Series, n int, band ARCBand, ta, tb float64, cfg Config, c *arcCarry, days []float64) ARCSignals {
	sums, peak := sc.bandSums(s, n, band, ta, tb)
	c.update(sums, arcHalfWindow(cfg))
	out := ARCSignals{Band: band, ThresholdA: ta, ThresholdB: tb}
	if len(c.y) == 0 {
		return out
	}
	if peaks := (Curve{X: days, Y: c.y}).Peaks(cfg.ARCPeakThreshold, cfg.ARCPeakMinSepDays); len(peaks) > 0 {
		out.PeakDays = make([]float64, len(peaks))
		for i, p := range peaks {
			out.PeakDays[i] = days[p]
		}
	}

	bounds := daySegments(n, out.PeakDays)
	// Baseline band rate, estimated from the lower-quartile daily count.
	// A quantile baseline — rather than a previous-segment comparison —
	// gives attacks that start on day 0 no place to hide, and the 25th
	// percentile stays honest even when unfair ratings land on up to three
	// quarters of all days (a dilute long-duration attack poisons the
	// median). For a Poisson(λ) band the lower quartile sits ≈ 0.7·√λ
	// below the mean, so that gap is added back to recover λ.
	q25 := stats.QuantileCounts(c.counts, 0.25, sc.histBuf(int(peak)+1))
	baseline := q25 + 0.7*math.Sqrt(q25)
	// The alarm margin scales with the baseline: busy bands (H-ARC on a
	// popular product counts nearly every rating) fluctuate in absolute
	// terms far more than quiet ones, so a purely absolute delta would
	// fire on ordinary bursts.
	margin := cfg.ARCRateDelta
	if rel := cfg.ARCRelDelta * baseline; rel > margin {
		margin = rel
	}
	out.Segments = make([]ARCSegment, 0, len(bounds))
	for _, iv := range bounds {
		seg := ARCSegment{Interval: iv, Rate: meanSums(sums, iv)}
		seg.Suspicious = seg.Rate-baseline > margin
		out.Segments = append(out.Segments, seg)
	}
	return out
}

// daySegments splits [0, days) at the peak days.
func daySegments(days int, peakDays []float64) []Interval {
	end := float64(days)
	if len(peakDays) == 0 {
		return []Interval{{Start: 0, End: end}}
	}
	out := make([]Interval, 0, len(peakDays)+1)
	prev := 0.0
	for _, t := range peakDays {
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

// meanSums returns the mean daily count over iv, clipped to the days
// whose prefix sums are sums. The counts are integers, so the prefix-sum
// difference is exactly the sum reference.ArrivalRateChange adds up.
func meanSums(sums []int64, iv Interval) float64 {
	lo := int(iv.Start)
	hi := int(math.Ceil(iv.End))
	if lo < 0 {
		lo = 0
	}
	if hi > len(sums)-1 {
		hi = len(sums) - 1
	}
	if hi <= lo {
		return 0
	}
	return float64(sums[hi]-sums[lo]) / float64(hi-lo)
}
