package detect

import (
	"math"
	"slices"

	"repro/internal/dataset"
)

// A detector run on one product is two stages: the trust-free detectors
// (SeriesSignals for MC, HC and ME; ArrivalSignals for H-ARC and L-ARC)
// fill a Signals, and Decide, the only stage that reads rater trust, fuses
// it into a Decision. The indicator curves stay in the Prefix the
// detectors carry (Prefix.Curves).
//
// Signals is the trust-free half of one detector run: everything Decide
// reads, and no indicator curves. It is a pure function of the series,
// the horizon (ARC bands only) and the Config, so it can be cached and
// decided again whenever only rater trust changed. Decide never writes
// it.
type Signals struct {
	// MC holds the mean-change segments with Interval, Mean and Shift set;
	// AvgTrust and Suspicious are Decide's.
	MC   []MCSegment
	HARC ARCSignals
	LARC ARCSignals
	// HC and ME are the merged suspicious windows of the histogram-change
	// and model-error detectors.
	HC []Interval
	ME []Interval
}

// SeriesSignals runs the horizon-free detectors (MC, HC, ME) on scratch sc
// and returns their trust-free signals; HARC and LARC are left zero (see
// ArrivalSignals).
//
// p carries the per-position detector values of the series it last
// covered, and is brought up to s (nil computes everything from scratch).
// p must agree with s on every rating both cover: a caller whose series
// may have changed since p last covered it calls p.Rewind first. A caller
// that analyzes prefixes of one series under one Config passes the same
// Prefix each time: a shorter s truncates p, and a longer one extends it.
// Every MC point, HC window and ME window whose inputs lie inside the
// covered prefix is copied, and only those the new ratings reach are
// computed. Peaks, segments and interval merges are redone over the full
// arrays, so the result is bit-identical to a fresh call.
func SeriesSignals(s dataset.Series, cfg Config, sc *Scratch, p *Prefix) Signals {
	if p == nil {
		p = new(Prefix)
	} else if len(s) < len(p.vals) {
		p.truncate(len(s), cfg)
	}
	p.vals = slices.Grow(p.vals, len(s)-len(p.vals))
	for _, r := range s[len(p.vals):] {
		p.vals = append(p.vals, r.Value)
	}
	p.mc = mcExtend(s, cfg, Curve{X: p.mc.X[:len(p.mc.Y)], Y: p.mc.Y})
	p.hc = hcExtend(sc, s, cfg, p.hc)
	p.me = meExtend(sc, s, cfg, p.me)
	return Signals{
		MC: mcSegments(s, cfg, p.mc),
		HC: hcIntervals(s, cfg, p.hc),
		ME: meIntervals(s, cfg, p.me),
	}
}

// Prefix is what SeriesSignals and ArrivalSignals carry from one call to
// the next. SeriesSignals' part covers a series: the rating values, the MC
// curve, the HC ratio of every window and the ME fit of every window. mc.X
// holds the covered days, so they are not copied again; mc.Y holds the MC
// points of the first len(mc.Y) ratings, which is all of them except
// between a Rewind and the next SeriesSignals. ArrivalSignals' part, arc
// (H-ARC, then L-ARC), covers the daily band counts of the last series and
// horizon it saw, and their curves; it checks itself against the counts on
// every call, so Rewind leaves it alone. The zero value covers nothing. A
// Prefix is only valid under the Config it was computed with, and it is
// not safe for concurrent use.
type Prefix struct {
	vals []float64
	mc   Curve
	hc   []float64
	me   []meFit
	arc  [2]arcCarry
}

// Rewind truncates p to the longest prefix it shares with s: the leading
// ratings whose Day and Value bits equal those p covers. Raters do not
// count, because MC, HC and ME never read them. cfg must be the Config p
// was computed with. Afterwards p agrees with s, so SeriesSignals can
// extend it to s or to any prefix of s.
func (p *Prefix) Rewind(s dataset.Series, cfg Config) {
	k, n := 0, min(len(s), len(p.vals))
	for k < n && math.Float64bits(s[k].Day) == math.Float64bits(p.mc.X[k]) &&
		math.Float64bits(s[k].Value) == math.Float64bits(p.vals[k]) {
		k++
	}
	p.truncate(k, cfg)
}

// truncate cuts p to its first k ratings, keeping exactly the values whose
// inputs lie inside them, by the extension's own keep rules: an HC or ME
// window is kept iff it ends before k, and an MC point iff its forward
// window stopped before the old rating k, !(old[k].Day < t(j)+W). The MC
// points kept may be fewer than k; the next extension recomputes the rest,
// and also every kept point whose forward window reaches the new rating k.
func (p *Prefix) truncate(k int, cfg Config) {
	if k >= len(p.vals) {
		return
	}
	keep, half := min(k, len(p.mc.Y)), cfg.MCWindowDays/2
	for keep > 0 && p.mc.X[k] < p.mc.X[keep-1]+half {
		keep--
	}
	p.vals, p.mc.X, p.mc.Y = p.vals[:k], p.mc.X[:k], p.mc.Y[:keep]
	p.hc = p.hc[:min(len(p.hc), windowsWithin(k, cfg.HCWindowRatings, cfg.HCStepRatings))]
	p.me = p.me[:min(len(p.me), windowsWithin(k, cfg.MEWindowRatings, cfg.MEStepRatings))]
}

// Curves returns the indicator curves of the series p covers, as the last
// SeriesSignals and ArrivalSignals left it: the MC curve (one point per
// rating), the H-ARC and L-ARC curves (one point per day of [3, n−3] over
// the n days of the horizon), and the HC and ME curves (one point per
// window, at the window's centre day; an ME window whose AR fit failed has
// none). cfg must be the Config p was computed with. The MC, ARC and HC
// values alias p, so they are valid until p is next extended or rewound.
func (p *Prefix) Curves(cfg Config) (mc, high, low, hc, me Curve) {
	days := p.mc.X
	mc = Curve{X: days[:len(p.mc.Y)], Y: p.mc.Y}
	arc := func(c *arcCarry) Curve {
		if len(c.y) == 0 {
			return Curve{}
		}
		return Curve{X: curveDays(len(c.y)), Y: c.y}
	}
	high, low = arc(&p.arc[0]), arc(&p.arc[1])
	// centre returns the day midway between window j's first and last
	// ratings.
	centre := func(j, w, step int) float64 {
		start := j * windowStep(step)
		return (days[start] + days[start+w-1]) / 2
	}
	if len(p.hc) > 0 {
		hc = Curve{X: make([]float64, len(p.hc)), Y: p.hc}
		for j := range p.hc {
			hc.X[j] = centre(j, cfg.HCWindowRatings, cfg.HCStepRatings)
		}
	}
	for j, f := range p.me {
		if f.ok {
			me.X = append(me.X, centre(j, cfg.MEWindowRatings, cfg.MEStepRatings))
			me.Y = append(me.Y, f.relErr)
		}
	}
	return mc, high, low, hc, me
}

// ArrivalSignals runs H-ARC and L-ARC over the daily counts of
// [0, horizon) on scratch sc and returns their signals. The prefix mean
// and the band thresholds are computed once for both bands.
//
// p carries each band's daily counts and curve from the last call (nil
// computes everything from scratch). The counts are bucketed fresh and
// compared with the carried ones, and only the curve points whose window
// covers a changed day, or whose clip at the horizon moved, are
// recomputed; nothing is assumed about how the series or the horizon
// changed, so no Rewind is needed. Peaks, baseline and segments are redone
// over the full arrays, so the result is bit-identical to a fresh call.
func ArrivalSignals(s dataset.Series, horizon float64, cfg Config, sc *Scratch, p *Prefix) (high, low ARCSignals) {
	if p == nil {
		p = new(Prefix)
	}
	ta, tb := BandThresholds(s.Mean())
	n := horizonDays(horizon)
	days := sc.curveDays(curvePoints(n))
	high = arcBand(sc, s, n, HighBand, ta, tb, cfg, &p.arc[0], days)
	low = arcBand(sc, s, n, LowBand, ta, tb, cfg, &p.arc[1], days)
	return high, low
}

// Decision is the trust-dependent outcome of Decide.
type Decision struct {
	// Segments are the MC segments with AvgTrust and Suspicious decided.
	Segments []MCSegment
	// Suspicious marks each rating index judged suspicious by the fusion.
	Suspicious []bool
	// Intervals is the merged set of time intervals in which suspicious
	// ratings were marked.
	Intervals []Interval
}

// Decide is the trust stage of the stack: the MC segment test (segment
// AvgTrust against the series average) and the Figure 1 fusion over sig,
// which must have been computed from s. It allocates its output and never
// writes sig.
//
// Path 1 (strong attacks): when the MC detector flags a segment (a U-shape
// on the MC indicator curve) and the H-ARC (resp. L-ARC) detector shows a
// U-shape or a suspicious rate-increase segment overlapping it, the high
// (resp. low) ratings inside the overlap are marked suspicious.
//
// Path 2 (suspicious intervals): when H-ARC (resp. L-ARC) raises an alarm
// and the ME or HC detector flags an overlapping window, the high (resp.
// low) ratings inside the overlap are marked suspicious.
//
// Both paths always run (there may be multiple attacks against one
// product). ts supplies rater trust (nil for the neutral 0.5 source); a
// SeriesTrust must be bound to s.
func Decide(s dataset.Series, sig Signals, cfg Config, ts TrustSource) Decision {
	dec := Decision{Segments: decideSegments(s, sig.MC, cfg, ts), Suspicious: make([]bool, len(s))}
	if len(s) == 0 {
		return dec
	}

	var marked []Interval

	// Path 1: MC suspicious segment ∧ (H-ARC | L-ARC) U-shape or segment.
	// The bands are paired by direction: a downward mean shift can only be
	// explained by extra low ratings (L-ARC), an upward one by extra high
	// ratings (H-ARC).
	for _, seg := range dec.Segments {
		if !seg.Suspicious {
			continue
		}
		arc := &sig.LARC
		if seg.Shift > 0 {
			arc = &sig.HARC
		}
		for _, arcIv := range append(arc.UShape(), arc.SuspiciousIntervals()...) {
			common := seg.Interval.Intersect(arcIv)
			if common.Empty() {
				continue
			}
			markBand(s, common, arc, dec.Suspicious)
			marked = append(marked, common)
		}
	}

	// Path 2: (H-ARC | L-ARC) alarm ∧ (ME | HC) suspicious window. Once a
	// second-stage detector confirms any part of an ARC-suspicious
	// segment, the band ratings of the *whole* segment are marked: the
	// confirmation says the elevated band rate is an attack, and the
	// attack spans the segment, not just the confirming window.
	secondStage := append(append([]Interval(nil), sig.ME...), sig.HC...)
	for _, arc := range []*ARCSignals{&sig.HARC, &sig.LARC} {
		if !arc.Alarm() {
			continue
		}
		for _, arcIv := range arc.SuspiciousIntervals() {
			for _, win := range secondStage {
				if !arcIv.Overlaps(win) {
					continue
				}
				markBand(s, arcIv, arc, dec.Suspicious)
				marked = append(marked, arcIv)
				break
			}
		}
	}

	dec.Intervals = normalizeIntervals(marked)
	return dec
}

// markBand marks ratings inside iv whose value falls in the detector's band
// — above threshold_a for H-ARC, below threshold_b for L-ARC. The band
// threshold is additionally clamped to the mean of the ratings *outside*
// the interval: for a mean-4 product, threshold_a ≈ 2 would otherwise mark
// virtually every rating in a boost-suspicious interval, and removing them
// all would distort the aggregate more than the attack itself (the MP
// metric counts over-correction as manipulation too).
func markBand(s dataset.Series, iv Interval, arc *ARCSignals, suspicious []bool) {
	context := contextMean(s, iv)
	hi := maxF(arc.ThresholdA, context)
	lo := minF(arc.ThresholdB, context)
	for i, r := range s {
		if !iv.Contains(r.Day) {
			continue
		}
		switch arc.Band {
		case HighBand:
			if r.Value > hi {
				suspicious[i] = true
			}
		case LowBand:
			if r.Value < lo {
				suspicious[i] = true
			}
		default:
			suspicious[i] = true
		}
	}
}

// contextMean returns the mean rating value outside the interval (falling
// back to the whole-series mean when the interval covers everything).
//
//lint:hotpath
func contextMean(s dataset.Series, iv Interval) float64 {
	var sum float64
	var n int
	for _, r := range s {
		if iv.Contains(r.Day) {
			continue
		}
		sum += r.Value
		n++
	}
	if n == 0 {
		return s.Mean()
	}
	return sum / float64(n)
}

// normalizeIntervals sorts and merges a bag of intervals.
func normalizeIntervals(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return nil
	}
	sorted := make([]Interval, len(ivs))
	copy(sorted, ivs)
	for i := 1; i < len(sorted); i++ { // insertion sort: small inputs
		for j := i; j > 0 && sorted[j].Start < sorted[j-1].Start; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return mergeIntervals(sorted)
}
