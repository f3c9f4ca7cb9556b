package detect

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/trust"
)

// The incremental kernels (MCCurve's two-pointer sweep, the ARC single-pass
// band counts, HC's order-maintained window, ME's reused value buffer) must
// be bit-identical to the straightforward reference kernels in
// reference.go. These tests pin that contract over randomized series —
// including duplicate days, all-equal values, single ratings and empty
// windows — and over randomized configurations including degenerate window
// and step sizes (step larger than the window, windows longer than the
// series).

// bitsEqual compares float64 slices bit-for-bit (NaN-safe); nil and empty
// compare equal, matching every consumer (all are length-based).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// meanCounts is the reference segment rate: the mean of the float64 daily
// counts over iv (arrivalRateChangeRef reads it).
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

func curvesEqual(a, b Curve) bool {
	return bitsEqual(a.X, b.X) && bitsEqual(a.Y, b.Y)
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intervalsEqual(a, b []Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Start) != math.Float64bits(b[i].Start) ||
			math.Float64bits(a[i].End) != math.Float64bits(b[i].End) {
			return false
		}
	}
	return true
}

func mcResultsEqual(a, b MCResult) bool {
	if !curvesEqual(a.Curve, b.Curve) || !intsEqual(a.Peaks, b.Peaks) {
		return false
	}
	if len(a.Segments) != len(b.Segments) {
		return false
	}
	for i := range a.Segments {
		x, y := a.Segments[i], b.Segments[i]
		if x.Interval != y.Interval || x.Suspicious != y.Suspicious {
			return false
		}
		if math.Float64bits(x.Mean) != math.Float64bits(y.Mean) ||
			math.Float64bits(x.AvgTrust) != math.Float64bits(y.AvgTrust) ||
			math.Float64bits(x.Shift) != math.Float64bits(y.Shift) {
			return false
		}
	}
	return true
}

func arcResultsEqual(a, b ARCResult) bool {
	if a.Band != b.Band || !curvesEqual(a.Curve, b.Curve) || !intsEqual(a.Peaks, b.Peaks) {
		return false
	}
	if math.Float64bits(a.ThresholdA) != math.Float64bits(b.ThresholdA) ||
		math.Float64bits(a.ThresholdB) != math.Float64bits(b.ThresholdB) {
		return false
	}
	if len(a.Segments) != len(b.Segments) {
		return false
	}
	for i := range a.Segments {
		x, y := a.Segments[i], b.Segments[i]
		if x.Interval != y.Interval || x.Suspicious != y.Suspicious ||
			math.Float64bits(x.Rate) != math.Float64bits(y.Rate) {
			return false
		}
	}
	return true
}

func reportsEqual(a, b Report) bool {
	if !mcResultsEqual(a.MC, b.MC) ||
		!arcResultsEqual(a.HARC, b.HARC) || !arcResultsEqual(a.LARC, b.LARC) ||
		!curvesEqual(a.HC.Curve, b.HC.Curve) || !intervalsEqual(a.HC.Intervals, b.HC.Intervals) ||
		!curvesEqual(a.ME.Curve, b.ME.Curve) || !intervalsEqual(a.ME.Intervals, b.ME.Intervals) {
		return false
	}
	if len(a.Suspicious) != len(b.Suspicious) || !intervalsEqual(a.Intervals, b.Intervals) {
		return false
	}
	for i := range a.Suspicious {
		if a.Suspicious[i] != b.Suspicious[i] {
			return false
		}
	}
	return true
}

// equivSeries generates a sorted series stressing the kernel edge cases:
// mode selects duplicate-day runs, all-equal values, bimodal values (so HC
// fires), a lone rating, or the empty series.
func equivSeries(rng *rand.Rand, mode, n int) dataset.Series {
	switch mode % 5 {
	case 1: // all-equal values on distinct days
		s := make(dataset.Series, n)
		for i := range s {
			s[i] = dataset.Rating{Day: float64(i), Value: 3.5, Rater: fmt.Sprintf("r%02d", i%17)}
		}
		return s
	case 2: // duplicate days: bursts of ratings on the same day
		var s dataset.Series
		day := 0.0
		for len(s) < n {
			burst := 1 + int(rng.UintN(5))
			for j := 0; j < burst && len(s) < n; j++ {
				s = append(s, dataset.Rating{
					Day:   day,
					Value: float64(rng.UintN(11)) / 2,
					Rater: fmt.Sprintf("r%02d", rng.UintN(23)),
				})
			}
			day += float64(rng.UintN(4))
		}
		return s
	case 3: // bimodal: honest band plus a low-value population
		s := make(dataset.Series, n)
		for i := range s {
			v := 4.0 + float64(rng.UintN(3))/2
			if rng.UintN(3) == 0 {
				v = float64(rng.UintN(3)) / 2
			}
			s[i] = dataset.Rating{
				Day:   float64(i) * 0.8,
				Value: v,
				Rater: fmt.Sprintf("r%02d", rng.UintN(9)),
			}
		}
		return s
	case 4: // degenerate sizes: empty or single rating
		if n%2 == 0 {
			return nil
		}
		return dataset.Series{{Day: 2, Value: 1.5, Rater: "solo"}}
	default: // generic random walk over days
		var s dataset.Series
		day := 0.0
		for i := 0; i < n; i++ {
			day += float64(rng.UintN(16)) / 4
			s = append(s, dataset.Rating{
				Day:   day,
				Value: float64(rng.UintN(11)) / 2,
				Rater: fmt.Sprintf("r%02d", rng.UintN(29)),
			})
		}
		return s
	}
}

// equivConfig perturbs the default configuration into degenerate corners:
// tiny windows, zero steps, steps larger than the window.
func equivConfig(rng *rand.Rand) Config {
	cfg := DefaultConfig()
	switch rng.UintN(4) {
	case 1:
		cfg.MCWindowDays = float64(rng.UintN(8))
		cfg.ARCWindowDays = float64(rng.UintN(10))
		cfg.HCWindowRatings = int(rng.UintN(6)) // incl. 0 and 1
		cfg.HCStepRatings = int(rng.UintN(4))   // incl. 0 (→ 1)
		cfg.MEWindowRatings = int(rng.UintN(12))
		cfg.MEOrder = int(rng.UintN(3)) + 1
	case 2:
		cfg.HCWindowRatings = 2 + int(rng.UintN(5))
		cfg.HCStepRatings = cfg.HCWindowRatings + 1 + int(rng.UintN(40)) // step > window
		cfg.MEWindowRatings = 2*cfg.MEOrder + 1 + int(rng.UintN(4))
		cfg.MEStepRatings = cfg.MEWindowRatings + int(rng.UintN(20))
	case 3:
		cfg.HCWindowRatings = 200 // window longer than most series
		cfg.MEWindowRatings = 150
		cfg.MCWindowDays = 1000
	}
	return cfg
}

// trustSources returns the sources the MC segment test is exercised with: a
// real manager with accumulated evidence, the neutral source, and nil.
func trustSources(rng *rand.Rand) []TrustSource {
	mgr := trust.NewManager()
	for i := 0; i < 40; i++ {
		n := int(rng.UintN(20))
		f := int(rng.UintN(20))
		mgr.Observe(fmt.Sprintf("r%02d", rng.UintN(29)), n, f)
	}
	return []TrustSource{mgr, NeutralTrust(), nil}
}

func TestKernelEquivalenceRandomized(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		rng := stats.NewRNG(seed)
		s := equivSeries(rng, int(seed), 20+int(rng.UintN(300)))
		cfg := equivConfig(rng)
		horizon := 1.0
		if len(s) > 0 {
			_, last := s.Span()
			horizon = last + 1
		}

		if got, want := MCCurve(s, cfg), mcCurveRef(s, cfg); !curvesEqual(got, want) {
			t.Fatalf("seed %d: MCCurve diverges from reference", seed)
		}
		for _, ts := range trustSources(rng) {
			if got, want := MeanChange(s, cfg, ts), meanChangeRef(s, cfg, ts); !mcResultsEqual(got, want) {
				t.Fatalf("seed %d: MeanChange diverges from reference (ts=%T)", seed, ts)
			}
		}
		for _, band := range []ARCBand{AllRatings, HighBand, LowBand} {
			got := ArrivalRateChange(s, horizon, band, cfg)
			want := arrivalRateChangeRef(s, horizon, band, cfg)
			if !arcResultsEqual(got, want) {
				t.Fatalf("seed %d: ArrivalRateChange(%v) diverges from reference", seed, band)
			}
		}
		gotHC, wantHC := HistogramChange(s, cfg), histogramChangeRef(s, cfg)
		if !curvesEqual(gotHC.Curve, wantHC.Curve) || !intervalsEqual(gotHC.Intervals, wantHC.Intervals) {
			t.Fatalf("seed %d: HistogramChange diverges from reference", seed)
		}
		gotME, wantME := ModelError(s, cfg), modelErrorRef(s, cfg)
		if !curvesEqual(gotME.Curve, wantME.Curve) || !intervalsEqual(gotME.Intervals, wantME.Intervals) {
			t.Fatalf("seed %d: ModelError diverges from reference", seed)
		}
	}
}

// TestScratchReuseBitExact drives one Scratch through many different series
// and configurations and checks every Report against a fresh-buffer run:
// leftover buffer contents from a previous, larger series must never leak
// into a result.
func TestScratchReuseBitExact(t *testing.T) {
	sc := NewScratch()
	for seed := uint64(100); seed < 140; seed++ {
		rng := stats.NewRNG(seed)
		s := equivSeries(rng, int(seed), 10+int(rng.UintN(250)))
		cfg := equivConfig(rng)
		horizon := 1.0
		if len(s) > 0 {
			_, last := s.Span()
			horizon = last + 1
		}
		got := AnalyzeWith(s, horizon, cfg, nil, sc)
		want := Analyze(s, horizon, cfg, nil)
		if !reportsEqual(got, want) {
			t.Fatalf("seed %d: scratch-reuse Analyze diverges from fresh run", seed)
		}
	}
}

// TestKernelEquivalenceEdgeCases pins the hand-picked corners: empty
// series, single rating, two ratings on one day, all-equal window values
// (every gap zero), and a window exactly the series length.
func TestKernelEquivalenceEdgeCases(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HCWindowRatings = 4
	cfg.HCStepRatings = 3
	cfg.MEWindowRatings = 9
	cfg.MEOrder = 4

	cases := []dataset.Series{
		nil,
		{{Day: 0, Value: 2.5, Rater: "a"}},
		{{Day: 1, Value: 2.5, Rater: "a"}, {Day: 1, Value: 2.5, Rater: "b"}},
		func() dataset.Series { // all-equal values, duplicate days
			var s dataset.Series
			for i := 0; i < 12; i++ {
				s = append(s, dataset.Rating{Day: float64(i / 3), Value: 4, Rater: fmt.Sprintf("r%d", i)})
			}
			return s
		}(),
		func() dataset.Series { // window == series length
			var s dataset.Series
			for i := 0; i < 4; i++ {
				s = append(s, dataset.Rating{Day: float64(i), Value: float64(i), Rater: "x"})
			}
			return s
		}(),
	}
	for i, s := range cases {
		horizon := 1.0
		if len(s) > 0 {
			_, last := s.Span()
			horizon = last + 1
		}
		if got, want := MCCurve(s, cfg), mcCurveRef(s, cfg); !curvesEqual(got, want) {
			t.Errorf("case %d: MCCurve diverges", i)
		}
		if got, want := MeanChange(s, cfg, nil), meanChangeRef(s, cfg, nil); !mcResultsEqual(got, want) {
			t.Errorf("case %d: MeanChange diverges", i)
		}
		for _, band := range []ARCBand{AllRatings, HighBand, LowBand} {
			if got, want := ArrivalRateChange(s, horizon, band, cfg), arrivalRateChangeRef(s, horizon, band, cfg); !arcResultsEqual(got, want) {
				t.Errorf("case %d: ARC(%v) diverges", i, band)
			}
		}
		gotHC, wantHC := HistogramChange(s, cfg), histogramChangeRef(s, cfg)
		if !curvesEqual(gotHC.Curve, wantHC.Curve) || !intervalsEqual(gotHC.Intervals, wantHC.Intervals) {
			t.Errorf("case %d: HistogramChange diverges", i)
		}
		gotME, wantME := ModelError(s, cfg), modelErrorRef(s, cfg)
		if !curvesEqual(gotME.Curve, wantME.Curve) || !intervalsEqual(gotME.Intervals, wantME.Intervals) {
			t.Errorf("case %d: ModelError diverges", i)
		}
	}
}

// TestAverageTrustRangeMatchesAverageTrust pins the satellite contract: the
// slice-free trust walk equals TrustSource.AverageTrust over the same
// raters, bit for bit, for both the manager and the neutral source.
func TestAverageTrustRangeMatchesAverageTrust(t *testing.T) {
	rng := stats.NewRNG(7)
	s := equivSeries(rng, 0, 120)
	raters := make([]string, len(s))
	for i, r := range s {
		raters[i] = r.Rater
	}
	for _, ts := range trustSources(rng)[:2] {
		got := averageTrustRange(ts, s, 0, len(s))
		want := ts.AverageTrust(raters)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%T: averageTrustRange = %v, AverageTrust = %v", ts, got, want)
		}
	}
}
