package detect

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// checkCarried requires the signals got, computed for s through a carried
// Prefix p, to equal a fresh SeriesSignals bit for bit, and p's carried
// per-position values and the signals to equal the reference kernels'.
func checkCarried(t *testing.T, label string, s dataset.Series, cfg Config, got Signals, p *Prefix) {
	t.Helper()
	if fresh := SeriesSignals(s, cfg, NewScratch(), nil); !signalsEqual(got, fresh) {
		t.Fatalf("%s: carried signals %+v, fresh %+v", label, got, fresh)
	}
	if want := mcCurveRef(s, cfg); !curvesEqual(p.mc, want) {
		t.Fatalf("%s: carried MC curve diverges from mcCurveRef", label)
	}
	mc := meanChangeRef(s, cfg, nil)
	if len(got.MC) != len(mc.Segments) {
		t.Fatalf("%s: %d MC segments, meanChangeRef has %d", label, len(got.MC), len(mc.Segments))
	}
	for i, seg := range mc.Segments {
		seg.AvgTrust, seg.Suspicious = 0, false // Decide's fields
		if !mcResultsEqual(MCResult{Segments: got.MC[i : i+1]}, MCResult{Segments: []MCSegment{seg}}) {
			t.Fatalf("%s: MC segment %d is %+v, meanChangeRef %+v", label, i, got.MC[i], seg)
		}
	}
	hc := histogramChangeRef(s, cfg)
	if !bitsEqual(p.hc, hc.Curve.Y) || !intervalsEqual(got.HC, hc.Intervals) {
		t.Fatalf("%s: carried HC diverges from histogramChangeRef", label)
	}
	var relErrs []float64
	for _, f := range p.me {
		if f.ok {
			relErrs = append(relErrs, f.relErr)
		}
	}
	me := modelErrorRef(s, cfg)
	if !bitsEqual(relErrs, me.Curve.Y) || !intervalsEqual(got.ME, me.Intervals) {
		t.Fatalf("%s: carried ME diverges from modelErrorRef", label)
	}
}

// TestPrefixExtensionProperty carries one Prefix over a random walk of cut
// points of a series — growing the way a Resume's epochs grow a product's
// prefix, but also standing still, shrinking (a reset) and cutting inside
// runs of equal days, which epoch prefixes never do. On every prefix the
// carried signals must match a fresh SeriesSignals and the reference
// kernels bit for bit. Attacked series exercise live detector signals;
// the kernel-equivalence series and configurations exercise the corners
// (duplicate days, degenerate windows, steps beyond the window).
func TestPrefixExtensionProperty(t *testing.T) {
	sc := NewScratch()
	var inRun, short, same, reset, grown int
	for seed := uint64(1); seed <= 40; seed++ {
		rng := stats.NewRNG(seed)
		cfg := DefaultConfig()
		var s dataset.Series
		if seed%2 == 0 {
			start := 10 + rng.Float64()*80
			mean := 1.0 + 3.5*float64(seed/2%2) // downgrade or boost
			s = attacked(t, seed, start, start+10+rng.Float64()*30, 20+rng.IntN(40), mean, 0.6)
		} else {
			s = equivSeries(rng, int(seed/2), 30+int(rng.UintN(270)))
			cfg = equivConfig(rng)
		}
		window := cfg.HCWindowRatings
		if cfg.MEWindowRatings > window {
			window = cfg.MEWindowRatings
		}
		var p Prefix
		k := 0
		for step := 0; step < 14; step++ {
			prev := k
			switch {
			case step == 13:
				k = len(s)
			case rng.UintN(6) == 0:
				// unchanged prefix
			case rng.UintN(6) == 0 && k > 0:
				k = rng.IntN(k) // shorter: the carry resets
			default:
				k += 1 + rng.IntN(len(s)/6+1)
			}
			if k > len(s) {
				k = len(s)
			}
			switch {
			case k == prev:
				same++
			case k < prev:
				reset++
			default:
				grown++
			}
			if k < window {
				short++
			}
			if k > 0 && k < len(s) && !(s[k-1].Day < s[k].Day) {
				inRun++
			}
			label := fmt.Sprintf("seed %d, step %d, prefix %d of %d (from %d)", seed, step, k, len(s), prev)
			checkCarried(t, label, s[:k], cfg, SeriesSignals(s[:k], cfg, sc, &p), &p)
		}
	}
	t.Logf("cuts: %d grown, %d unchanged, %d shorter, %d inside equal-day runs, %d shorter than a window",
		grown, same, reset, inRun, short)
	if inRun == 0 || short == 0 || same == 0 || reset == 0 || grown == 0 {
		t.Fatal("the cut walk missed a case; the property test has lost its teeth")
	}
}
