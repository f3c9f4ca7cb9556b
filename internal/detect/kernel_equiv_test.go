package detect_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dataset"
	. "repro/internal/detect"
	"repro/internal/reference"
	"repro/internal/stats"
	"repro/internal/trust"
)

// The incremental kernels (mcExtend's two-pointer sweep, the ARC single-pass
// band counts, HC's order-maintained window, ME's reused value buffer) must
// be bit-identical to the straightforward reference kernels in
// internal/reference. These tests pin that contract over randomized series —
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

func curvesEqual(a, b Curve) bool {
	return bitsEqual(a.X, b.X) && bitsEqual(a.Y, b.Y)
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

func segmentsEqual(a, b []MCSegment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
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

func decisionsEqual(a, b Decision) bool {
	return segmentsEqual(a.Segments, b.Segments) && slices.Equal(a.Suspicious, b.Suspicious) &&
		intervalsEqual(a.Intervals, b.Intervals)
}

// checkReference runs the stack on s through a fresh Prefix and requires
// its curves, signals and decided MC segments to equal the reference
// kernels' bit for bit, under each trust source, and every band of the
// ARC kernel (AllRatings too) to equal reference.ArrivalRateChange and
// reference.ARCCurve.
func checkReference(t *testing.T, label string, s dataset.Series, horizon float64, cfg Config, sources []TrustSource) {
	t.Helper()
	sig, _, p := Analyze(s, horizon, cfg, nil, NewScratch())
	mc, high, low, hc, me := p.Curves(cfg)
	if !curvesEqual(mc, reference.MCCurve(s, cfg)) {
		t.Fatalf("%s: MC curve diverges from reference.MCCurve", label)
	}
	for _, ts := range sources {
		if got, want := Decide(s, sig, cfg, ts).Segments, reference.MeanChange(s, cfg, ts); !segmentsEqual(got, want) {
			t.Fatalf("%s: MC segments %+v, reference.MeanChange %+v (ts=%T)", label, got, want, ts)
		}
	}
	for _, arc := range []struct {
		sig   ARCSignals
		curve Curve
	}{{sig.HARC, high}, {sig.LARC, low}} {
		band := arc.sig.Band
		if !arcSignalsEqual(arc.sig, reference.ArrivalRateChange(s, horizon, band, cfg)) || !curvesEqual(arc.curve, reference.ARCCurve(s, horizon, band, cfg)) {
			t.Fatalf("%s: ArrivalSignals %v diverges from reference", label, band)
		}
	}
	for _, band := range []ARCBand{AllRatings, HighBand, LowBand} {
		got, curve := ARCKernel(s, horizon, band, cfg)
		if !arcSignalsEqual(got, reference.ArrivalRateChange(s, horizon, band, cfg)) || !curvesEqual(curve, reference.ARCCurve(s, horizon, band, cfg)) {
			t.Fatalf("%s: ARC kernel (%v) diverges from reference", label, band)
		}
	}
	if want, ivs := reference.HistogramChange(s, cfg); !curvesEqual(hc, want) || !intervalsEqual(sig.HC, ivs) {
		t.Fatalf("%s: HC diverges from reference.HistogramChange", label)
	}
	if want, ivs := reference.ModelError(s, cfg); !curvesEqual(me, want) || !intervalsEqual(sig.ME, ivs) {
		t.Fatalf("%s: ME diverges from reference.ModelError", label)
	}
}

// checkScratchReuse requires a run on the warm scratch sc to equal a run
// on fresh buffers bit for bit: signals, decision and curves.
func checkScratchReuse(t *testing.T, label string, s dataset.Series, horizon float64, cfg Config, sc *Scratch) {
	t.Helper()
	gotSig, gotDec, gotP := Analyze(s, horizon, cfg, nil, sc)
	wantSig, wantDec, wantP := Analyze(s, horizon, cfg, nil, NewScratch())
	if !signalsEqual(gotSig, wantSig) || !decisionsEqual(gotDec, wantDec) {
		t.Fatalf("%s: warm-scratch run diverges from fresh run", label)
	}
	got, want := PrefixCurves(gotP, cfg), PrefixCurves(wantP, cfg)
	for i := range got {
		if !curvesEqual(got[i], want[i]) {
			t.Fatalf("%s: warm-scratch curve %d diverges from fresh run", label, i)
		}
	}
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
		checkReference(t, fmt.Sprintf("seed %d", seed), s, horizon, cfg, trustSources(rng))
	}
}

// TestScratchReuseBitExact drives one Scratch through many different series
// and configurations and checks every run against a fresh-buffer run:
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
		checkScratchReuse(t, fmt.Sprintf("seed %d", seed), s, horizon, cfg, sc)
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
		checkReference(t, fmt.Sprintf("case %d", i), s, horizon, cfg, []TrustSource{nil})
	}
}

// TestAverageTrustRangeMatchesAverageTrust pins the slice-free trust walk:
// it equals the plain in-order mean of Trust over the same raters, bit for
// bit, for both the manager and the neutral source.
func TestAverageTrustRangeMatchesAverageTrust(t *testing.T) {
	rng := stats.NewRNG(7)
	s := equivSeries(rng, 0, 120)
	raters := make([]string, len(s))
	for i, r := range s {
		raters[i] = r.Rater
	}
	for _, ts := range trustSources(rng)[:2] {
		got := AverageTrustRange(ts, s, 0, len(s))
		want := reference.AverageTrust(ts, raters)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%T: averageTrustRange = %v, in-order mean = %v", ts, got, want)
		}
	}
}
