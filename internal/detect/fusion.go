package detect

import "repro/internal/dataset"

// Report is the joint outcome of the four detectors plus the two-path
// fusion of Figure 1 on one product's rating series.
type Report struct {
	MC   MCResult
	HARC ARCResult
	LARC ARCResult
	HC   HCResult
	ME   MEResult

	// Suspicious marks each rating index judged suspicious by the fusion.
	Suspicious []bool
	// Intervals is the merged set of time intervals in which suspicious
	// ratings were marked.
	Intervals []Interval
}

// SuspiciousCount returns the number of ratings marked suspicious.
func (r Report) SuspiciousCount() int {
	n := 0
	for _, s := range r.Suspicious {
		if s {
			n++
		}
	}
	return n
}

// Analyze runs the full detector stack and Figure 1 fusion on the series
// (the two fusion paths are described at Decide). horizon is the dataset
// horizon in days; ts supplies rater trust for the MC segment test (pass
// nil for the neutral 0.5 source).
func Analyze(s dataset.Series, horizon float64, cfg Config, ts TrustSource) Report {
	return AnalyzeWith(s, horizon, cfg, ts, nil)
}

// AnalyzeWith is Analyze with caller-owned scratch buffers: sc (from
// NewScratch) carries the detector kernels' working memory across calls, so
// a loop over many products performs O(1) window allocations per product
// instead of O(windows). Pass nil to allocate fresh buffers (equivalent to
// Analyze). The returned Report never aliases scratch memory; a Scratch
// must not be shared between concurrent calls.
//
// The run is the two stages callers may also drive separately: the
// trust-free detector signals (SeriesSignals, ArrivalSignals), then
// Decide, the only stage that reads ts.
func AnalyzeWith(s dataset.Series, horizon float64, cfg Config, ts TrustSource, sc *Scratch) Report {
	if sc == nil {
		sc = NewScratch()
	}
	rep := Report{
		MC:   meanChangeSignals(s, cfg),
		HARC: arrivalRateChangeWith(sc, s, horizon, HighBand, cfg),
		LARC: arrivalRateChangeWith(sc, s, horizon, LowBand, cfg),
		HC:   histogramChangeWith(sc, s, cfg),
		ME:   modelErrorWith(sc, s, cfg),
	}
	// The report owns its MC segments, so they are decided in place.
	dec := decide(s, Signals{
		MC:   rep.MC.Segments,
		HARC: rep.HARC.signals(),
		LARC: rep.LARC.signals(),
		HC:   rep.HC.Intervals,
		ME:   rep.ME.Intervals,
	}, cfg, ts, rep.MC.Segments)
	rep.Suspicious, rep.Intervals = dec.Suspicious, dec.Intervals
	return rep
}

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
func SeriesSignals(s dataset.Series, cfg Config, sc *Scratch) Signals {
	return Signals{
		MC: meanChangeSignals(s, cfg).Segments,
		HC: histogramChangeWith(sc, s, cfg).Intervals,
		ME: modelErrorWith(sc, s, cfg).Intervals,
	}
}

// ArrivalSignals runs H-ARC and L-ARC over the daily counts of
// [0, horizon) on scratch sc and returns their signals.
func ArrivalSignals(s dataset.Series, horizon float64, cfg Config, sc *Scratch) (high, low ARCSignals) {
	high = arrivalRateChangeWith(sc, s, horizon, HighBand, cfg).signals()
	low = arrivalRateChangeWith(sc, s, horizon, LowBand, cfg).signals()
	return high, low
}

// Decision is the trust-dependent outcome of Decide.
type Decision struct {
	// Segments are the MC segments with AvgTrust and Suspicious decided.
	Segments []MCSegment
	// Suspicious and Intervals are Report's fields of the same names.
	Suspicious []bool
	Intervals  []Interval
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
// product). ts supplies rater trust (nil for the neutral 0.5 source).
func Decide(s dataset.Series, sig Signals, cfg Config, ts TrustSource) Decision {
	var segs []MCSegment
	if len(sig.MC) > 0 {
		segs = make([]MCSegment, len(sig.MC))
	}
	return decide(s, sig, cfg, ts, segs)
}

// decide is Decide writing the decided MC segments into segs (len(sig.MC);
// may be sig.MC itself when the caller owns it).
func decide(s dataset.Series, sig Signals, cfg Config, ts TrustSource, segs []MCSegment) Decision {
	decideSegments(segs, s, sig.MC, cfg, ts)
	dec := Decision{Segments: segs, Suspicious: make([]bool, len(s))}
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
