package detect

import (
	"fmt"
	"slices"
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
// prefix, but also standing still, shrinking (a truncation) and cutting
// inside runs of equal days, which epoch prefixes never do. On every prefix the
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
				k = rng.IntN(k) // shorter: the carry is truncated
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

// editKinds names the series edits applyEdit makes, in op order.
var editKinds = [...]string{"tail append", "out-of-order insert", "same-day tie", "value change", "cut", "delete"}

// applyEdit returns s with one edit applied and the edit's kind (an index
// into editKinds): op picks the edit, pos the rating it lands at and v the
// new value or the day offset. Inserts go through Series.Insert on a
// capacity-clipped view, so s itself is never written.
func applyEdit(s dataset.Series, op, pos, v byte) (dataset.Series, int) {
	kind := int(op) % len(editKinds)
	if len(s) == 0 {
		kind = 0
	}
	k := int(pos) % max(len(s), 1)
	r := dataset.Rating{Value: float64(v%11) / 2, Rater: "edit"}
	switch kind {
	case 0:
		if len(s) > 0 {
			r.Day = s[len(s)-1].Day + float64(v%8)/4 // gap 0 ties the tail
		}
	case 1:
		r.Day = s[k].Day - float64(v%8+1)/8
	case 2:
		r.Day = s[k].Day
	case 3:
		c := slices.Clone(s)
		if c[k].Value == r.Value {
			r.Value = float64((v+1)%11) / 2
		}
		c[k].Value = r.Value
		return c, kind
	case 4:
		return s[:k:k], kind
	case 5:
		return append(slices.Clone(s[:k]), s[k+1:]...), kind
	}
	return slices.Clip(s).Insert(r), kind
}

// TestPrefixEditProperty walks one carry over random edit sequences of a
// series — in-order tail appends, out-of-order inserts, same-day ties,
// value-only changes, cuts and deletions — the way a stored carry meets
// its product again on the next Resume. After every edit the carry is
// rewound to the new series, sometimes brought up to one of its prefixes
// first (an epoch's), and then to the whole series; every step must match
// a fresh SeriesSignals and the reference kernels bit for bit.
func TestPrefixEditProperty(t *testing.T) {
	sc := NewScratch()
	var kinds [len(editKinds)]int
	viaPrefix := 0
	for seed := uint64(1); seed <= 30; seed++ {
		rng := stats.NewRNG(seed + 100)
		cfg := DefaultConfig()
		var s dataset.Series
		if seed%2 == 0 {
			start := 10 + rng.Float64()*80
			s = attacked(t, seed, start, start+10+rng.Float64()*30, 20+rng.IntN(40), 1.0+3.5*float64(seed/2%2), 0.6)
		} else {
			s = equivSeries(rng, int(seed/2), 30+int(rng.UintN(200)))
			cfg = equivConfig(rng)
		}
		var p Prefix
		checkCarried(t, fmt.Sprintf("seed %d, start", seed), s, cfg, SeriesSignals(s, cfg, sc, &p), &p)
		for step := 0; step < 12; step++ {
			var kind int
			s, kind = applyEdit(s, byte(rng.UintN(256)), byte(rng.UintN(256)), byte(rng.UintN(256)))
			kinds[kind]++
			label := fmt.Sprintf("seed %d, step %d, %s, %d ratings", seed, step, editKinds[kind], len(s))
			p.Rewind(s, cfg)
			if len(s) > 0 && rng.UintN(3) == 0 {
				j := rng.IntN(len(s))
				checkCarried(t, label+fmt.Sprintf(", prefix %d", j), s[:j], cfg, SeriesSignals(s[:j], cfg, sc, &p), &p)
				viaPrefix++
			}
			checkCarried(t, label, s, cfg, SeriesSignals(s, cfg, sc, &p), &p)
		}
	}
	t.Logf("edits %v of %v; %d analyzed a prefix first", kinds, editKinds, viaPrefix)
	for kind, n := range kinds {
		if n == 0 {
			t.Fatalf("the edit walk made no %s; the property test has lost its teeth", editKinds[kind])
		}
	}
	if viaPrefix == 0 {
		t.Fatal("the edit walk never analyzed a prefix first")
	}
}

// FuzzPrefixEdit is TestPrefixEditProperty on fuzzed input: a series, a
// configuration and a sequence of edits (three bytes each, as applyEdit
// reads them). The carry is rewound and extended after every edit and must
// match a fresh run and the reference kernels bit for bit.
func FuzzPrefixEdit(f *testing.F) {
	f.Add([]byte{1, 5, 2, 6, 3, 7, 4, 8}, []byte{0, 0, 3, 1, 2, 9, 4, 1, 0}, byte(4), byte(1), byte(6))
	f.Add([]byte{0, 5, 0, 5, 0, 5, 0, 5, 0, 5}, []byte{2, 1, 5, 3, 2, 2, 5, 0, 0}, byte(2), byte(2), byte(9)) // duplicate days
	f.Add([]byte{4, 2, 4, 9, 4, 1, 4, 10, 4, 3}, []byte{3, 3, 0, 1, 4, 7, 0, 0, 2}, byte(40), byte(5), byte(40))

	sc := NewScratch()
	f.Fuzz(func(t *testing.T, raw, edits []byte, a, b, c byte) {
		s := fuzzSeries(raw)
		cfg := fuzzConfig(a, b, c)
		var p Prefix
		checkCarried(t, "start", s, cfg, SeriesSignals(s, cfg, sc, &p), &p)
		for i := 0; i+2 < len(edits) && i < 60; i += 3 {
			var kind int
			s, kind = applyEdit(s, edits[i], edits[i+1], edits[i+2])
			p.Rewind(s, cfg)
			checkCarried(t, fmt.Sprintf("edit %d (%s)", i/3, editKinds[kind]), s, cfg, SeriesSignals(s, cfg, sc, &p), &p)
		}
	})
}
